// Package cpoll implements RAMBDA's coherence-assisted accelerator
// notification (paper Sec. III-B). A checker sits in the datapath of
// the cc-accelerator's coherence controller and snoops a single
// registered address region (the cpoll region). When a client's RDMA
// write or the CPU's coherent store hits the region, the resulting
// invalidation signal identifies which request ring received a message
// — with no polling traffic on the cc-interconnect.
//
// Two modes are provided, matching Fig. 3:
//
//   - Direct (Fig. 3b): the request rings themselves are the cpoll
//     region, pinned in the accelerator's local cache. Scales up to the
//     local cache size.
//   - PointerBuffer (Fig. 3c): a dense array of 4-byte per-ring
//     counters is the cpoll region; producers increment their slot
//     alongside each message. A 4-byte slot covers an arbitrarily large
//     ring, so the pinned footprint stays tiny.
//
// The paper's "RAMBDA-polling" ablation keeps no state here: core.Server
// charges it as a calibrated per-request cc-link cost.
package cpoll

import (
	"fmt"

	"rambda/internal/coherence"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/ringbuf"
	"rambda/internal/sim"
)

// Mode selects the cpoll region layout.
type Mode int

const (
	// Direct pins the request rings themselves (Fig. 3b).
	Direct Mode = iota
	// PointerBuffer pins a compact per-ring counter array (Fig. 3c).
	PointerBuffer
)

// String names the mode.
func (m Mode) String() string {
	if m == Direct {
		return "direct"
	}
	return "pointer-buffer"
}

// FetchFunc charges the cost of the accelerator's coherence controller
// fetching `bytes` at addr (a cc-link crossing plus the backing device
// on a miss). It is supplied by the accelerator model so cpoll stays
// free of timing policy.
type FetchFunc func(now sim.Time, addr memspace.Addr, bytes int) sim.Time

// tracked is the checker's per-ring state.
type tracked struct {
	ring     *ringbuf.Ring
	ptrSlot  int
	seen     uint32 // messages harvested so far ("previous tail")
	dirty    bool
	inFlight bool // queued for the scheduler
}

// Checker is the cpoll checker.
type Checker struct {
	mode   Mode
	region memspace.Range
	domain *coherence.Domain
	agent  coherence.AgentID
	pb     *ringbuf.PointerBuffer

	bufs []*tracked

	// queue is a fixed-capacity FIFO ring of dirty ring indices for
	// the scheduler, sized to the connection count at construction.
	// The inFlight dedupe bounds live entries to len(bufs), so the
	// ring cannot overflow in correct operation; a full ring therefore
	// drops the signal (the delta-based Harvest still recovers the
	// messages on the next signal) and counts the drop.
	queue   []int32
	qhead   int
	qlen    int
	dropped int64

	signals   int64
	harvested int64

	// tr, when attached, records a StageNotify span per Harvest; nil
	// is the uninstrumented fast path.
	tr *obs.Trace
}

// NewDirect builds a checker whose cpoll region is the union span of
// the given request rings, which must be contiguous in memory (the
// framework allocates them that way, paper Sec. III-B). cacheBytes is
// the accelerator's local cache size; the region must fit or NewDirect
// panics — this is exactly the scalability limit that motivates the
// pointer buffer.
func NewDirect(domain *coherence.Domain, agent coherence.AgentID, rings []*ringbuf.Ring, cacheBytes int) *Checker {
	if len(rings) == 0 {
		panic("cpoll: no rings")
	}
	region := rings[0].Range
	for _, r := range rings[1:] {
		if r.Range.Base != region.End() {
			panic("cpoll: direct-mode rings must be contiguous")
		}
		region.Size += r.Range.Size
	}
	if region.Size > uint64(cacheBytes) {
		panic(fmt.Sprintf("cpoll: region %d B exceeds local cache %d B; use pointer-buffer mode",
			region.Size, cacheBytes))
	}
	c := &Checker{mode: Direct, region: region, domain: domain, agent: agent}
	for _, r := range rings {
		c.bufs = append(c.bufs, &tracked{ring: r})
	}
	c.queue = make([]int32, len(c.bufs))
	domain.Pin(agent, region)
	domain.SetSnooper(agent, c.onSignal)
	return c
}

// NewPointer builds a checker over a pointer buffer whose slot i
// corresponds to rings[i].
func NewPointer(domain *coherence.Domain, agent coherence.AgentID, pb *ringbuf.PointerBuffer, rings []*ringbuf.Ring) *Checker {
	if len(rings) > pb.Slots() {
		panic("cpoll: more rings than pointer-buffer slots")
	}
	c := &Checker{
		mode: PointerBuffer, region: pb.Range(), domain: domain, agent: agent, pb: pb,
	}
	for i, r := range rings {
		c.bufs = append(c.bufs, &tracked{ring: r, ptrSlot: i})
	}
	c.queue = make([]int32, len(c.bufs))
	domain.Pin(agent, pb.Range())
	domain.SetSnooper(agent, c.onSignal)
	return c
}

// SetTrace attaches (or with nil detaches) a span recorder; Harvest
// then records a StageNotify span covering signal resolution.
func (c *Checker) SetTrace(tr *obs.Trace) { c.tr = tr }

// RegisterMetrics registers the checker's series on reg under the
// given name prefix: signal-queue drops, pending rings, and totals.
func (c *Checker) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".signal_drops", func() float64 { return float64(c.dropped) })
	reg.Gauge(prefix+".pending_rings", func() float64 { return float64(c.PendingRings()) })
	reg.Gauge(prefix+".signals", func() float64 { return float64(c.signals) })
	reg.Gauge(prefix+".harvested", func() float64 { return float64(c.harvested) })
}

// Mode returns the checker's region layout.
func (c *Checker) Mode() Mode { return c.mode }

// Region returns the registered cpoll region.
func (c *Checker) Region() memspace.Range { return c.region }

// onSignal dispatches an invalidation to the rings it may belong to —
// the "trivially scalable" address-based dispatch of Sec. III-B.
// Invalidations arrive at cacheline granularity: in pointer-buffer mode
// several 4-byte slots share a line, and once the line is invalid,
// writes to *other* slots in it coalesce silently. The checker therefore
// marks every ring whose state lives in the invalidated lines as dirty;
// Harvest's previous-tail delta then resolves which rings actually
// received messages (zero-delta harvests are cheap 4-byte reads).
func (c *Checker) onSignal(sig coherence.Signal) {
	c.signals++
	span := memspace.Range{
		Base: sig.Addr &^ (coherence.LineSize - 1),
	}
	end := (sig.Addr + memspace.Addr(max(sig.Bytes, 1)) - 1) | (coherence.LineSize - 1)
	span.Size = uint64(end + 1 - span.Base)
	for idx := range c.bufs {
		if !c.stateRange(idx).Overlaps(span) {
			continue
		}
		b := c.bufs[idx]
		b.dirty = true
		if !b.inFlight {
			if c.qlen == len(c.queue) {
				// Cannot happen while inFlight dedupe holds (≤ one live
				// entry per ring), but a bounded structure never trusts
				// its invariant silently: drop and count. The ring stays
				// dirty, so the next signal re-queues it.
				c.dropped++
				continue
			}
			b.inFlight = true
			c.queue[(c.qhead+c.qlen)%len(c.queue)] = int32(idx)
			c.qlen++
		}
	}
}

// stateRange returns the memory the checker watches on behalf of ring
// idx: its pointer-buffer slot, or the ring itself in direct mode.
func (c *Checker) stateRange(idx int) memspace.Range {
	if c.mode == PointerBuffer {
		return memspace.Range{Base: c.pb.Addr(idx), Size: ringbuf.PtrEntryBytes}
	}
	return c.bufs[idx].ring.Range
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NextDirty pops the next signaled ring index in FIFO order for the
// scheduler. ok is false when no ring has pending signals.
func (c *Checker) NextDirty() (int, bool) {
	for c.qlen > 0 {
		idx := int(c.queue[c.qhead])
		c.qhead = (c.qhead + 1) % len(c.queue)
		c.qlen--
		b := c.bufs[idx]
		b.inFlight = false
		if b.dirty {
			return idx, true
		}
	}
	return 0, false
}

// Harvest determines how many new requests arrived on ring idx since
// the last harvest, charging controller fetches through fetch, and
// reacquires the invalidated lines so the next write signals again.
// Coalesced signals are handled by the previous-tail tracking the paper
// describes: one signal may yield several requests, several signals to
// an unharvested ring yield their union exactly once.
func (c *Checker) Harvest(now sim.Time, idx int, fetch FetchFunc) (int, sim.Time) {
	var sp obs.SpanID
	if c.tr != nil {
		sp = c.tr.Push("harvest", obs.StageNotify, now)
	}
	b := c.bufs[idx]
	b.dirty = false
	at := now
	var fresh int
	switch c.mode {
	case PointerBuffer:
		// One cacheline fetch brings every slot sharing the line, so
		// all dirty same-line rings are resolved with a single
		// controller read — this is what keeps pointer-buffer cpoll
		// cheap despite 4-byte slots packing 16 to a line.
		lineAddr := c.pb.Addr(b.ptrSlot) &^ (coherence.LineSize - 1)
		at = fetch(at, lineAddr, coherence.LineSize)
		for _, ob := range c.bufs {
			sameLine := c.pb.Addr(ob.ptrSlot)&^(coherence.LineSize-1) == lineAddr
			if !sameLine || (!ob.dirty && ob != b) {
				continue
			}
			ob.dirty = false
			val := c.pb.Read(ob.ptrSlot)
			delta := int(val - ob.seen)
			ob.seen = val
			if ob == b {
				fresh = delta
			} else {
				c.harvested += int64(delta)
			}
		}
		c.domain.Reacquire(c.agent, lineAddr, coherence.LineSize)
	default:
		// Scan forward from the previous tail while entries are valid.
		for {
			pos := int(b.seen) % b.ring.NumEntries
			addr := b.ring.EntryAddr(pos)
			at = fetch(at, addr, coherence.LineSize)
			c.domain.Reacquire(c.agent, addr, b.ring.EntrySize)
			if !b.ring.EntryValid(pos) {
				break
			}
			fresh++
			b.seen++
			if fresh == b.ring.NumEntries {
				break
			}
		}
	}
	c.harvested += int64(fresh)
	if c.tr != nil {
		c.tr.Pop(sp, at)
	}
	return fresh, at
}

// Signals reports invalidations observed by the checker.
func (c *Checker) Signals() int64 { return c.signals }

// Harvested reports total requests discovered.
func (c *Checker) Harvested() int64 { return c.harvested }

// PendingRings reports how many rings currently have unharvested
// signals.
func (c *Checker) PendingRings() int {
	n := 0
	for _, b := range c.bufs {
		if b.dirty {
			n++
		}
	}
	return n
}
