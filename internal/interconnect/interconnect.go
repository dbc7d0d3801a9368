// Package interconnect models the three link types a RAMBDA server
// spans: the PCIe link between the RNIC and the host (with TLP framing
// and the TPH header bit used by adaptive DDIO), the cache-coherent
// off-chip interconnect (UPI on the paper's prototype, CXL in its
// future-platform projection), and the datacenter Ethernet/RoCE link.
package interconnect

import (
	"fmt"

	"rambda/internal/fault"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// PCIe models one direction of a PCIe endpoint's link. DMA transfers
// are split into TLPs with per-packet header overhead; MMIO writes
// (doorbells) are small posted writes with high effective latency.
type PCIe struct {
	res *sim.Resource

	// TLPHeader is the per-packet framing overhead in bytes (PCIe
	// TLP header + DLLP/framing, ~24 B for a 3-DW header with ECRC).
	TLPHeader int
	// MaxPayload is the maximum TLP payload (256 B on the modeled
	// platform).
	MaxPayload int
	// MMIOCost is the end-to-end latency of an uncached MMIO register
	// write including the surrounding store fence.
	MMIOCost sim.Duration
}

// NewPCIe builds one PCIe direction with the given bandwidth and
// propagation latency.
func NewPCIe(name string, bytesPerSec float64, propagation sim.Duration, mmioCost sim.Duration) *PCIe {
	return &PCIe{
		res:        sim.NewResource(name, 1, 0, bytesPerSec, propagation),
		TLPHeader:  24,
		MaxPayload: 256,
		MMIOCost:   mmioCost,
	}
}

// packets returns the number of TLPs needed for a payload.
func (p *PCIe) packets(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + p.MaxPayload - 1) / p.MaxPayload
}

// DMA schedules a DMA transfer of `bytes` across the link, returning
// the time the last TLP arrives.
func (p *PCIe) DMA(now sim.Time, bytes int) sim.Time {
	wire := bytes + p.packets(bytes)*p.TLPHeader
	_, done := p.res.Acquire(now, wire)
	return done
}

// MMIOWrite schedules a doorbell/register write (a small posted write
// whose cost is dominated by ordering fences and the non-posted-like
// serialization at the device).
func (p *PCIe) MMIOWrite(now sim.Time) sim.Time {
	_, done := p.res.Acquire(now, p.TLPHeader+8)
	return done + p.MMIOCost
}

// Resource exposes the underlying link queue.
func (p *PCIe) Resource() *sim.Resource { return p.res }

// TLP is a single PCIe packet as seen by the adaptive-DDIO logic: the
// only field the mechanism reads is the TPH bit (paper Sec. III-D: "the
// 16th bit in the PCIe header").
type TLP struct {
	TPH     bool
	Payload int
}

// CCLink models the cache-coherent interconnect between the CPU and the
// cc-accelerator (one UPI link at 10.4 GT/s ≈ 20.8 GB/s on the
// prototype). Transfers move whole 64 B cachelines; the per-transfer
// propagation is the cross-socket coherence hop latency.
type CCLink struct {
	res *sim.Resource
}

// NewCCLink builds the cc-link with aggregate bandwidth and hop
// latency.
func NewCCLink(name string, bytesPerSec float64, hop sim.Duration) *CCLink {
	return &CCLink{res: sim.NewResource(name, 1, 0, bytesPerSec, hop)}
}

// Transfer schedules a cacheline-granular transfer and returns its
// arrival time.
func (l *CCLink) Transfer(now sim.Time, bytes int) sim.Time {
	lines := (bytes + 63) / 64
	if lines < 1 {
		lines = 1
	}
	_, done := l.res.Acquire(now, lines*64)
	return done
}

// Resource exposes the underlying link queue.
func (l *CCLink) Resource() *sim.Resource { return l.res }

// NetLink models one direction of the datacenter network path between
// two machines: an Ethernet/RoCEv2 link with per-packet header
// overhead and one-way propagation (half the base RTT, including switch
// and NIC pipeline latency).
//
// Failure injection is a fault.Plan drop rule attached with
// AttachFaults: Transmit consults the plan per packet and reports drops
// to the caller, so a reliability layer above (the RC queue pair in
// internal/rnic) can do real timeout-driven retransmission with
// backoff. Send absorbs the same losses itself: lost messages are
// redelivered by the link after a timeout, so delivery stays reliable
// while tail latency inflates.
type NetLink struct {
	res  *sim.Resource
	name string

	// HeaderBytes is the per-packet wire overhead (Ethernet + IP + UDP
	// + BTH + ICRC + preamble/IFG ≈ 90 B for RoCEv2).
	HeaderBytes int
	// MTU is the maximum payload per packet.
	MTU int

	lost int64

	// fi is the link's fault process; nil (the common case) is the
	// allocation-free clean fast path.
	fi *fault.LinkInjector

	// tr, when attached, records one StageWire span per Transmit; nil
	// (the common case) is the uninstrumented fast path, same pattern
	// as fi.
	tr *obs.Trace
}

// NewNetLink builds one network direction with the given wire bandwidth
// and one-way latency.
func NewNetLink(name string, bytesPerSec float64, oneWay sim.Duration) *NetLink {
	return &NetLink{
		res:         sim.NewResource(name, 1, 0, bytesPerSec, oneWay),
		name:        name,
		HeaderBytes: 90,
		MTU:         4096,
	}
}

// Name returns the link name used for fault-plan matching.
func (n *NetLink) Name() string { return n.name }

// AttachFaults binds the link to its rule in the instantiated plan (a
// no-op when the plan has no rule for this link name).
func (n *NetLink) AttachFaults(inj *fault.Injector) {
	n.fi = inj.Link(n.name)
}

// Faults returns the link's fault injector (nil when clean) so
// transports can report loss statistics.
func (n *NetLink) Faults() *fault.LinkInjector { return n.fi }

// SetTrace attaches (or with nil detaches) a span recorder; each
// Transmit then records a StageWire span named after the link. The
// link name is interned at construction, so recording allocates
// nothing.
func (n *NetLink) SetTrace(tr *obs.Trace) { n.tr = tr }

// Lost reports transmission attempts Send redelivered.
func (n *NetLink) Lost() int64 { return n.lost }

// Outcome reports the fate of one Transmit: when the last packet's
// wire time ended, and whether the fault plan dropped any packet of the
// burst. Arrive is meaningful even for dropped bursts (the attempt
// occupied the wire); delivery happened only when Dropped is unset.
type Outcome struct {
	Arrive  sim.Time
	Dropped bool
}

// Transmit schedules a message of `bytes` payload, consulting the fault
// plan once per packet, and reports the outcome to the caller. This is
// the primitive for transports that own their reliability (the RC queue
// pair): a drop is NOT retried here. With no fault rule attached the
// call reduces to exactly one resource acquisition — the clean path
// allocates nothing and draws no randomness.
func (n *NetLink) Transmit(now sim.Time, bytes int) Outcome {
	if bytes < 0 {
		bytes = 0
	}
	pkts := 1
	if bytes > 0 {
		pkts = (bytes + n.MTU - 1) / n.MTU
	}
	wire := bytes + pkts*n.HeaderBytes
	_, done := n.res.Acquire(now, wire)
	out := Outcome{Arrive: done}
	if n.fi != nil {
		for p := 0; p < pkts; p++ {
			if n.fi.Drop() {
				out.Dropped = true
			}
		}
	}
	if n.tr != nil {
		n.tr.Span(n.name, obs.StageWire, now, out.Arrive)
	}
	return out
}

// sendRedeliverCap bounds the link-level redelivery loop for Send
// callers without their own transport; a plan that drops every packet
// on such a link is a configuration error, not a simulation state.
const sendRedeliverCap = 64

// defaultRedeliver is Send's link-level retransmission timeout.
const defaultRedeliver = 20 * sim.Microsecond

// Send schedules a message of `bytes` payload and returns its arrival
// time at the far end. Delivery is reliable at link level: fault-plan
// drops are redelivered after defaultRedeliver — use Transmit to see
// losses instead of absorbing them.
func (n *NetLink) Send(now sim.Time, bytes int) sim.Time {
	if bytes < 0 {
		bytes = 0
	}
	out := n.Transmit(now, bytes)
	done := out.Arrive
	for attempt := 0; out.Dropped; attempt++ {
		if attempt >= sendRedeliverCap {
			panic(fmt.Sprintf("interconnect: link %q dropped %d consecutive redeliveries — fault plan starves Send callers", n.name, attempt))
		}
		n.lost++
		out = n.Transmit(done+defaultRedeliver, bytes)
		done = out.Arrive
	}
	return done
}

// Resource exposes the underlying link queue.
func (n *NetLink) Resource() *sim.Resource { return n.res }

// Duplex couples the two directions of a point-to-point network path.
type Duplex struct {
	AtoB *NetLink
	BtoA *NetLink
}

// NewDuplex builds a symmetric duplex path.
func NewDuplex(name string, bytesPerSec float64, oneWay sim.Duration) *Duplex {
	return &Duplex{
		AtoB: NewNetLink(name+":a->b", bytesPerSec, oneWay),
		BtoA: NewNetLink(name+":b->a", bytesPerSec, oneWay),
	}
}

// AttachFaults binds both directions to their rules in the plan.
func (d *Duplex) AttachFaults(inj *fault.Injector) {
	d.AtoB.AttachFaults(inj)
	d.BtoA.AttachFaults(inj)
}
