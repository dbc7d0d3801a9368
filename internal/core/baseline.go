package core

import (
	"fmt"

	"rambda/internal/hostcpu"
	"rambda/internal/memspace"
	"rambda/internal/ringbuf"
	"rambda/internal/rnic"
	"rambda/internal/sim"
)

// CPUHandler is the request handler of the CPU baseline: it computes
// the response functionally and describes the core/memory work to
// charge (a HERD/MICA-style server thread).
type CPUHandler func(req []byte) (resp []byte, work hostcpu.Work)

// CPUServerOptions sizes the baseline server.
type CPUServerOptions struct {
	Connections int
	RingEntries int
	EntryBytes  int
	// Batch is the request batch size: it hides memory latency inside
	// request processing and amortizes the RPC/doorbell overheads
	// (Fig. 10's dominant CPU effect).
	Batch int
	// PollCycles is the per-request share of ring-polling work on the
	// core.
	PollCycles int
	// DispatchCycles is the per-request RPC dispatch/response-post
	// instruction path, amortized by Batch.
	DispatchCycles int
	// JitterProb/JitterCycles model OS-scheduling and cache-contention
	// hiccups on server cores — the reason the paper's CPU tail latency
	// exceeds RAMBDA's ("more stable behavior than the CPU core, whose
	// performance is affected by factors like OS scheduling and CPU
	// resource contention", Sec. VI-B). A JitterProb fraction of
	// requests takes an extra JitterCycles on its core.
	JitterProb   float64
	JitterCycles int
	// JitterSeed makes the hiccup stream deterministic.
	JitterSeed uint64
}

// DefaultCPUServerOptions mirrors the evaluation configuration.
func DefaultCPUServerOptions() CPUServerOptions {
	return CPUServerOptions{
		Connections:    16,
		RingEntries:    64,
		EntryBytes:     128,
		Batch:          32,
		PollCycles:     60,
		DispatchCycles: 600,
	}
}

// CPUServer is the two-sided-RDMA CPU baseline: server cores poll the
// request rings, process requests in batches, and post responses
// through the NIC with batched doorbells.
type CPUServer struct {
	M       *Machine
	Handler CPUHandler
	Opts    CPUServerOptions

	rings  []*ringbuf.Ring
	conns  []*ringbuf.ServerConn
	jitter *sim.RNG

	served int64
}

// NewCPUServer allocates the baseline server's rings.
func NewCPUServer(m *Machine, h CPUHandler, opts CPUServerOptions) *CPUServer {
	if opts.Connections <= 0 || opts.RingEntries <= 0 || opts.EntryBytes <= 0 {
		panic("core: bad CPU server options")
	}
	if opts.Batch < 1 {
		opts.Batch = 1
	}
	ringBytes := uint64(opts.RingEntries * opts.EntryBytes)
	all := m.Space.Alloc(m.Name+":cpu-req-rings", ringBytes*uint64(opts.Connections), memspace.KindDRAM)
	s := &CPUServer{M: m, Handler: h, Opts: opts, jitter: sim.NewRNG(opts.JitterSeed + 0xC0DE)}
	for i := 0; i < opts.Connections; i++ {
		r := memspace.Range{Base: all.Base + memspace.Addr(uint64(i)*ringBytes), Size: ringBytes}
		s.rings = append(s.rings, ringbuf.NewRing(m.Space, ringbuf.NewLayout(r, opts.RingEntries)))
	}
	s.conns = make([]*ringbuf.ServerConn, opts.Connections)
	return s
}

// Served reports completed requests.
func (s *CPUServer) Served() int64 { return s.served }

// Ring returns connection idx's request ring.
func (s *CPUServer) Ring(idx int) *ringbuf.Ring { return s.rings[idx] }

// cpuResponder posts responses through the server NIC from a CPU core,
// amortizing the doorbell MMIO over the batch size.
type cpuResponder struct {
	s       *CPUServer
	qp      *rnic.QP
	staging *memspace.Region
	posted  int64
}

// Deliver implements ringbuf.Transport.
func (r *cpuResponder) Deliver(now sim.Time, entryAddr memspace.Addr, entry []byte,
	ptrAddr memspace.Addr, ptrVal uint32) sim.Time {
	if ptrAddr != 0 {
		panic("core: CPU responses do not update pointer buffers")
	}
	if len(entry) > int(r.staging.Size) {
		panic("core: response exceeds staging")
	}
	r.s.M.Space.Write(r.staging.Base, entry)
	// Store to the send buffer (LLC) before the NIC DMA-reads it.
	at := r.s.M.Mem.LLC.Access(now, len(entry))
	r.qp.PostSend(rnic.WQE{LocalAddr: r.staging.Base, RemoteAddr: entryAddr, Len: len(entry)})
	r.posted++
	if r.posted%int64(r.s.Opts.Batch) == 0 {
		at = r.s.M.PCIeOut.MMIOWrite(at)
	}
	results := r.qp.ExecutePosted(at)
	return results[len(results)-1].RemoteVisible
}

// CPUClient is a remote client of the CPU baseline.
type CPUClient struct {
	M      *Machine
	Server *CPUServer
	Idx    int
	conn   *ringbuf.Conn
	qp     *rnic.QP
}

// ConnectCPUClient establishes connection idx from cm to the baseline
// server.
func ConnectCPUClient(cm *Machine, s *CPUServer, idx int) *CPUClient {
	if idx < 0 || idx >= len(s.rings) {
		panic("core: connection index out of range")
	}
	respReg := cm.Space.Alloc(fmt.Sprintf("%s:cpu-resp-%d", cm.Name, idx),
		uint64(s.Opts.RingEntries*s.Opts.EntryBytes), memspace.KindDRAM)
	respLayout := ringbuf.NewLayout(respReg.Range, s.Opts.RingEntries)
	staging := cm.Space.Alloc(fmt.Sprintf("%s:cpu-staging-%d", cm.Name, idx),
		uint64(s.Opts.EntryBytes+ringbuf.PtrEntryBytes), memspace.KindDRAM)

	cq, sq := cm.NIC.NewQP(), s.M.NIC.NewQP()
	rnic.ConnectQP(cq, sq)
	s.M.NIC.RegisterMR(s.rings[idx].Range, true)
	cm.NIC.RegisterMR(respReg.Range, true)

	// Two-sided semantics: the client needs completion notifications,
	// so its requests are signaled (CQE + wire ACK), one of the
	// overheads RAMBDA's unsignaled one-sided writes avoid.
	tr := ringbuf.NewRDMATransport(cq, cm.Space, staging)
	tr.Signaled = true
	conn := ringbuf.NewConn(s.rings[idx].Layout, ringbuf.NewRing(cm.Space, respLayout), tr, 0)

	srvStaging := s.M.Space.Alloc(fmt.Sprintf("%s:cpu-sq-staging-%d", s.M.Name, idx),
		uint64(s.Opts.EntryBytes), memspace.KindDRAM)
	s.conns[idx] = ringbuf.NewServerConn(s.rings[idx], respLayout, &cpuResponder{s: s, qp: sq, staging: srvStaging})
	return &CPUClient{M: cm, Server: s, Idx: idx, conn: conn, qp: cq}
}

// CanSend reports flow-control credit.
func (c *CPUClient) CanSend() bool { return c.conn.CanSend() }

// Serve walks one request through a server core.
func (s *CPUServer) Serve(arrive sim.Time, idx int) ([]byte, sim.Time) {
	conn := s.conns[idx]
	payload, eidx, ok := conn.NextRequest()
	if !ok {
		panic(fmt.Sprintf("core: CPU serve on empty ring %d", idx))
	}
	resp, work := s.Handler(payload)
	// Pay the polling + dispatch instruction path (amortized by
	// batching) plus the handler-declared work with the batch's latency
	// hiding. Under load, queueing supplies the batch, so a request does
	// not wait for it to fill.
	work.Cycles += s.Opts.PollCycles + s.Opts.DispatchCycles/s.Opts.Batch
	if s.Opts.JitterProb > 0 && s.jitter.Float64() < s.Opts.JitterProb {
		work.Cycles += s.Opts.JitterCycles
	}
	if work.Batch == 0 {
		work.Batch = s.Opts.Batch
	}
	t := s.M.CPU.Process(arrive, work)
	conn.Complete(eidx)
	done := conn.Respond(t, resp)
	s.served++
	return resp, done
}

// Call sends one request end to end.
func (c *CPUClient) Call(now sim.Time, payload []byte) ([]byte, sim.Time) {
	arrive := c.conn.Send(now, payload)
	resp, done := c.Server.Serve(arrive, c.Idx)
	if _, ok := c.conn.PollResponse(); !ok {
		panic("core: CPU response missing")
	}
	c.qp.CQ().Discard(4) // drain request completions
	return resp, done
}
