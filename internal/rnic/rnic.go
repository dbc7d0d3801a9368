// Package rnic models a standard RDMA NIC (the paper's ConnectX-6 /
// BlueField-2 in NIC mode): reliable-connection queue pairs, work queue
// entries, completion queues, MMIO doorbells with batching, unsignaled
// WQEs, one-sided RDMA WRITE (the only verb RAMBDA's ring-buffer
// transport issues, paper Sec. III-A/B), and memory-region registration
// carrying the per-region TPH attribute that the adaptive DDIO design
// adds to the NIC (paper Sec. III-D guideline 2).
//
// The model is functional — payload bytes really move between the two
// machines' address spaces — and timed: every hop (host PCIe DMA, wire,
// remote PCIe DMA, LLC/memory landing) is charged to the corresponding
// resource.
package rnic

import (
	"rambda/internal/coherence"
	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// WQE is a work queue entry in the device-specific format the paper's
// SQ handler assembles (Sec. III-C).
// Every WQE is a one-sided RDMA WRITE.
type WQE struct {
	LocalAddr  memspace.Addr // source
	RemoteAddr memspace.Addr // destination
	Len        int
	Signaled   bool   // write a CQE on completion (paper uses unsignaled WQEs)
	WRID       uint64 // caller cookie returned in the CQE
}

// CQE is a completion queue entry.
type CQE struct {
	WRID uint64
	At   sim.Time
	// Len is the byte count of the completed operation.
	Len int
	// Status is CQEOK for successful completions; error completions
	// (retry exhaustion, flushes) carry the cause.
	Status CQEStatus
}

// CQ is a completion queue: a ring in host memory that the NIC DMA-writes
// and the host polls. Consumed entries are tracked by a head index so
// the backing array is reused once the queue drains (steady-state
// push/poll cycles allocate nothing).
type CQ struct {
	entries []CQE
	head    int
}

// Poll removes and returns up to max completions.
func (c *CQ) Poll(max int) []CQE {
	if max <= 0 || c.Len() == 0 {
		return nil
	}
	if max > c.Len() {
		max = c.Len()
	}
	out := make([]CQE, max)
	copy(out, c.entries[c.head:c.head+max])
	c.advance(max)
	return out
}

// Discard consumes up to max completions without copying them out —
// the polling loop of a caller that only needs the completion event,
// not its payload. Returns the number consumed.
func (c *CQ) Discard(max int) int {
	if max > c.Len() {
		max = c.Len()
	}
	if max > 0 {
		c.advance(max)
	}
	return max
}

// Len reports queued completions.
func (c *CQ) Len() int { return len(c.entries) - c.head }

func (c *CQ) advance(n int) {
	c.head += n
	if c.head == len(c.entries) {
		c.entries = c.entries[:0]
		c.head = 0
	}
}

func (c *CQ) push(e CQE) { c.entries = append(c.entries, e) }

// MR is a registered memory region. TPH records whether RDMA writes
// into this region should set the PCIe TPH bit (true for DRAM regions,
// false for NVM regions under adaptive DDIO).
type MR struct {
	Range memspace.Range
	TPH   bool
}

// Host is the NIC's attachment to its machine: the PCIe link, the
// memory system (for DMA landing costs and DDIO steering), the address
// space (for actual data movement), and the coherence domain (so DMA
// writes trigger cpoll signals).
type Host struct {
	Space *memspace.Space
	Mem   *memdev.System
	PCIe  *interconnect.PCIe // NIC->host direction (DMA writes, CQEs)
	PCIeR *interconnect.PCIe // host->NIC direction (DMA reads, doorbells)
	Coh   *coherence.Domain
	Agent coherence.AgentID // how the NIC appears to the coherence domain
}

// DMAWrite moves data into host memory: PCIe transfer, LLC/memory
// landing per the TPH bit, then a coherence-domain write so pinned
// snoopers (cpoll) observe it.
func (h *Host) DMAWrite(now sim.Time, addr memspace.Addr, data []byte, tph bool) sim.Time {
	at := h.PCIe.DMA(now, len(data))
	at, _ = h.Mem.DMAWrite(at, addr, len(data), tph)
	h.Space.Write(addr, data)
	h.Coh.Write(h.Agent, addr, len(data), at)
	return at
}

// DMARead fetches data from host memory into the NIC: memory read then
// PCIe transfer toward the device.
func (h *Host) DMARead(now sim.Time, addr memspace.Addr, buf []byte) sim.Time {
	at := h.Mem.MemRead(now, addr, len(buf))
	at = h.PCIeR.DMA(at, len(buf))
	h.Space.Read(addr, buf)
	return at
}

// NIC is one RDMA NIC. Wire it to a peer with Connect.
type NIC struct {
	Name string
	Host *Host

	// proc models the NIC's packet-processing pipeline (WQE fetch,
	// transport state, DMA engine scheduling).
	proc *sim.Resource

	tx *interconnect.NetLink // toward the peer
	// peer is the NIC at the far end of tx.
	peer *NIC

	mrs []MR

	// arena pools payload staging buffers for this NIC's operations
	// (requester-side WRITE staging).
	arena payloadArena

	// tr, when attached via SetObs, records StageNIC spans for WQE
	// execution legs (DMA reads/writes, doorbells, CQE delivery); nil
	// is the uninstrumented fast path.
	tr *obs.Trace

	qpCounter int
}

// Config sets the NIC pipeline characteristics.
type Config struct {
	Name string
	// PerWQE is the pipeline occupancy per work request.
	PerWQE sim.Duration
	// Pipelines is the number of parallel processing units.
	Pipelines int
}

// New creates a NIC attached to the given host.
func New(cfg Config, host *Host) *NIC {
	if cfg.Pipelines <= 0 {
		cfg.Pipelines = 4
	}
	if cfg.PerWQE <= 0 {
		cfg.PerWQE = 15 * sim.Nanosecond
	}
	return &NIC{
		Name: cfg.Name,
		Host: host,
		proc: sim.NewResource(cfg.Name+":proc", cfg.Pipelines, cfg.PerWQE, 0, 0),
	}
}

// Connect wires two NICs through a duplex network path. a transmits on
// d.AtoB, b on d.BtoA.
func Connect(a, b *NIC, d *interconnect.Duplex) {
	a.tx, b.tx = d.AtoB, d.BtoA
	a.peer, b.peer = b, a
}

// SetObs attaches a span recorder to the NIC and its transmit link:
// WQE execution legs record StageNIC spans and every wire transit
// records a StageWire span. Metrics (per-QP retransmit/timeout counts,
// arena occupancy) are registered by the layer that owns the registry
// via RegisterMetrics. Call after Connect; nil detaches.
func (n *NIC) SetObs(tr *obs.Trace) {
	n.tr = tr
	if n.tx != nil {
		n.tx.SetTrace(tr)
	}
}

// RegisterMetrics registers the NIC's gauges on reg under the given
// name prefix: arena occupancy plus the aggregate retransmit /
// timeout counts across all of this NIC's queue pairs would need QP
// handles, so QP-level series are registered by callers that own the
// QPs (see core.ConnectClient); here we register what the NIC itself
// owns.
func (n *NIC) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".arena_live", func() float64 { return float64(n.arena.live) })
}

// RegisterMR registers a memory region, recording the TPH attribute for
// inbound RDMA writes (adaptive DDIO: set for DRAM, clear for NVM).
func (n *NIC) RegisterMR(r memspace.Range, tph bool) {
	n.mrs = append(n.mrs, MR{Range: r, TPH: tph})
}

// tphFor looks up the TPH attribute for an inbound write at addr.
// Unregistered addresses default to no hint (legacy devices never set
// TPH, paper Sec. III-D).
func (n *NIC) tphFor(addr memspace.Addr) bool {
	for _, mr := range n.mrs {
		if mr.Range.Contains(addr) {
			return mr.TPH
		}
	}
	return false
}

// QP is a reliable-connection queue pair.
type QP struct {
	ID  int
	nic *NIC
	cq  *CQ

	sq        []WQE // posted, not yet rung
	remote    *QP
	stats     QPStats
	doorbells int64
	acked     int64

	// results is the reusable OpResult backing for Doorbell /
	// ExecutePosted; the returned slice is valid until the next drain of
	// this QP.
	results []OpResult

	// Reliable-connection transport state (rc.go): the QP state
	// machine and per-QP packet sequence numbers.
	state   QPState
	sendPSN uint32 // next PSN this side transmits
	recvPSN uint32 // next PSN this side expects (advanced by the peer)
}

// QPStats counts traffic through a QP.
type QPStats struct {
	Writes, BytesOut int64
	// Retransmits counts timeout-driven wire-leg retransmissions,
	// Timeouts counts retry budgets exhausted.
	Retransmits, Timeouts int64
}

// NewQP creates a queue pair on the NIC with a fresh CQ.
func (n *NIC) NewQP() *QP {
	n.qpCounter++
	return &QP{ID: n.qpCounter, nic: n, cq: &CQ{}}
}

// ConnectQP pairs two queue pairs (RC connection establishment).
func ConnectQP(a, b *QP) {
	a.remote, b.remote = b, a
}

// CQ returns the queue pair's completion queue.
func (q *QP) CQ() *CQ { return q.cq }

// RemoteHost returns the peer NIC's host attachment (nil when the QP is
// not connected) — used by transports that combine writes with
// user-mode memory registration (UMR) and need to place the secondary
// bytes functionally.
func (q *QP) RemoteHost() *Host {
	if q.remote == nil {
		return nil
	}
	return q.remote.nic.Host
}

// Stats returns traffic counters.
func (q *QP) Stats() QPStats { return q.stats }

// RegisterMetrics registers the QP's reliability counters as gauges on
// reg under the given name prefix. Gauges read the live stats at each
// ticker sample, so registration happens once at wiring time and the
// request path stays untouched.
func (q *QP) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".retransmits", func() float64 { return float64(q.stats.Retransmits) })
	reg.Gauge(prefix+".timeouts", func() float64 { return float64(q.stats.Timeouts) })
}

// Doorbells returns the number of doorbell MMIO writes issued.
func (q *QP) Doorbells() int64 { return q.doorbells }

// PostSend appends a WQE to the send queue without ringing the
// doorbell; combine several posts with one Doorbell call to batch
// (paper: "we batch the doorbell signals to the RNIC").
func (q *QP) PostSend(w WQE) {
	q.sq = append(q.sq, w)
}

// OpResult reports the timing of one executed work request.
type OpResult struct {
	WRID uint64
	// RemoteVisible is when the operation's effect is visible at the
	// target (data landed in remote memory).
	RemoteVisible sim.Time
	// CQEAt is when the local CQE was written (zero for unsignaled).
	CQEAt sim.Time
	// Status is CQEOK when the operation succeeded; transport failures
	// (retry exhaustion) and error-state flushes carry the cause,
	// and their RemoteVisible is zero — the effect never happened.
	Status CQEStatus
}

// Doorbell rings the NIC once (one MMIO write paid at `now` by the
// caller's link to the NIC) and executes every posted WQE in order.
// It returns per-WQE results. The MMIO cost is paid on the host->NIC
// PCIe direction; batching N WQEs under one doorbell amortizes it.
func (q *QP) Doorbell(now sim.Time) []OpResult {
	if len(q.sq) == 0 {
		return nil
	}
	q.doorbells++
	at := q.nic.Host.PCIeR.MMIOWrite(now)
	if q.nic.tr != nil {
		q.nic.tr.Span("doorbell", obs.StageNIC, now, at)
	}
	return q.ExecutePosted(at)
}

// ExecutePosted drains the send queue starting at `now` without
// charging a doorbell MMIO — for callers that pay the doorbell
// elsewhere (e.g. the accelerator's SQ handler amortizing one MMIO over
// a batch of responses). The RNIC may also "execute the WQE promptly
// before the doorbell is rung" (paper Sec. VI-B), which this models.
// The returned slice reuses per-QP backing storage and is only valid
// until the next Doorbell/ExecutePosted on this QP.
func (q *QP) ExecutePosted(now sim.Time) []OpResult {
	if len(q.sq) == 0 {
		return nil
	}
	q.results = q.results[:0]
	for _, w := range q.sq {
		q.results = append(q.results, q.execute(now, w))
	}
	q.sq = q.sq[:0]
	return q.results
}

func (q *QP) execute(now sim.Time, w WQE) OpResult {
	n := q.nic
	if q.remote == nil {
		panic("rnic: QP not connected")
	}
	if q.state == QPError {
		// An errored QP executes nothing: every posted WQE flushes as
		// an error CQE, in submission order.
		return q.flushWQE(now, w)
	}
	res := OpResult{WRID: w.WRID}
	_, t := n.proc.Acquire(now, 0)

	buf := n.arena.get(w.Len)
	dmaStart := t
	t = n.Host.DMARead(t, w.LocalAddr, buf)
	if n.tr != nil {
		n.tr.Span("dma-read", obs.StageNIC, dmaStart, t)
	}
	var ok bool
	if t, ok = q.sendReliable(n.tx, t, w.Len+wqeWireOverhead); !ok {
		n.arena.put(buf)
		return q.failWQE(t, w, CQERetryExceeded)
	}
	rn := q.remote.nic
	_, t = rn.proc.Acquire(t, 0)
	dmaStart = t
	t = rn.Host.DMAWrite(t, w.RemoteAddr, buf, rn.tphFor(w.RemoteAddr))
	if n.tr != nil {
		n.tr.Span("dma-write", obs.StageNIC, dmaStart, t)
	}
	n.arena.put(buf)
	res.RemoteVisible = t
	q.stats.Writes++
	q.stats.BytesOut += int64(w.Len)

	if w.Signaled {
		// The ACK returns over the wire, then the CQE is DMA-written to
		// the local CQ. Reliable-connection ACKs coalesce: only every
		// ackCoalesce-th completion sends a standalone ACK packet; the
		// rest piggyback on reverse traffic (standard RoCE behaviour).
		// A lost standalone ACK makes the requester time out and probe;
		// the responder answers from its ACK state without re-executing
		// — modeled as a reliable reverse leg.
		q.acked++
		back := res.RemoteVisible
		if q.acked%ackCoalesce == 0 {
			var ok bool
			if back, ok = q.sendReliable(q.remote.nic.tx, back, ackWireBytes); !ok {
				return q.failWQE(back, w, CQERetryExceeded)
			}
		}
		cqeAt := n.Host.PCIe.DMA(back, cqeBytes)
		if n.tr != nil {
			n.tr.Span("cqe-dma", obs.StageNIC, back, cqeAt)
		}
		q.cq.push(CQE{WRID: w.WRID, At: cqeAt, Len: w.Len})
		res.CQEAt = cqeAt
	}
	return res
}

// Wire-format constants: RoCE transport headers for a request beyond
// the payload, ACK size, CQE size, and the RC ACK coalescing factor.
const (
	wqeWireOverhead = 28 // RETH etc. beyond base headers
	ackWireBytes    = 16
	cqeBytes        = 64
	ackCoalesce     = 8
)
