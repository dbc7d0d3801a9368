package core

import (
	"fmt"

	"rambda/internal/accel"
	"rambda/internal/coherence"
	"rambda/internal/cpoll"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/ringbuf"
	"rambda/internal/rnic"
	"rambda/internal/sim"
)

// App is the application processing unit plug-in (paper Sec. III-C:
// "the APU is the only application-specific part in the entire RAMBDA
// architecture"). Handle processes one request at virtual time `now`
// using ctx for coherent data access and compute, returning the
// response payload and the time processing finished.
type App interface {
	Handle(ctx *AppCtx, now sim.Time, req []byte) ([]byte, sim.Time)
}

// AppFunc adapts a function to the App interface.
type AppFunc func(ctx *AppCtx, now sim.Time, req []byte) ([]byte, sim.Time)

// Handle implements App.
func (f AppFunc) Handle(ctx *AppCtx, now sim.Time, req []byte) ([]byte, sim.Time) {
	return f(ctx, now, req)
}

// AppCtx gives the APU its standard interfaces: cpoll reception is
// handled by the framework; data read/write and compute are charged to
// the accelerator's datapath.
type AppCtx struct {
	M *Machine
	A *accel.Accel

	// tr, when the server has a collector attached, records the APU's
	// data accesses as StageMemory spans and its cycles as
	// StageCompute spans; nil is the uninstrumented fast path.
	tr *obs.Trace
}

// Read charges an APU data read.
func (c *AppCtx) Read(now sim.Time, addr memspace.Addr, bytes int) sim.Time {
	t := c.A.ReadData(now, addr, bytes)
	if c.tr != nil {
		c.tr.Span("app-read", obs.StageMemory, now, t)
	}
	return t
}

// Write charges an APU data write (functional).
func (c *AppCtx) Write(now sim.Time, addr memspace.Addr, data []byte) sim.Time {
	t := c.A.WriteData(now, addr, data)
	if c.tr != nil {
		c.tr.Span("app-write", obs.StageMemory, now, t)
	}
	return t
}

// Compute charges APU cycles.
func (c *AppCtx) Compute(now sim.Time, cycles int) sim.Time {
	t := c.A.Compute(now, cycles)
	if c.tr != nil {
		c.tr.Span("app-compute", obs.StageCompute, now, t)
	}
	return t
}

// InvokeCPU passes work to the server CPU over the intra-machine ring
// pair and back (paper Sec. III-C's CPU-invocation scenarios; the DLRM
// preprocessing path). It charges both ring crossings and the CPU-side
// cycles.
func (c *AppCtx) InvokeCPU(now sim.Time, bytes int, cpuCycles int) sim.Time {
	t := c.invokeCPU(now, bytes, cpuCycles)
	if c.tr != nil {
		c.tr.Span("cpu-invoke", obs.StageCompute, now, t)
	}
	return t
}

func (c *AppCtx) invokeCPU(now sim.Time, bytes int, cpuCycles int) sim.Time {
	// Accelerator -> CPU: coherent store into the CPU-visible ring.
	at := c.A.Link().Transfer(now, bytes)
	at = c.M.Mem.LLC.Access(at, bytes)
	// CPU processes.
	_, at = c.M.CPU.Cores().Acquire(at, cpuCycles)
	// CPU -> accelerator: store visible over the cc-link.
	at = c.M.Mem.LLC.Access(at, bytes)
	return c.A.Link().Transfer(at, bytes)
}

// NotifyMode selects how the accelerator learns of new requests.
type NotifyMode int

const (
	// NotifyCpoll is RAMBDA's coherence-assisted notification.
	NotifyCpoll NotifyMode = iota
	// NotifyPolling is the conventional spin-polling ablation
	// ("RAMBDA-polling").
	NotifyPolling
)

// ServerOptions sizes a RAMBDA server.
type ServerOptions struct {
	// Connections is the number of client rings to allocate.
	Connections int
	// RingEntries and EntryBytes define each request ring (1024 x 1 KB
	// in the prototype; tests use smaller rings).
	RingEntries int
	EntryBytes  int
	// Mode selects direct-pinned vs pointer-buffer cpoll regions.
	Mode cpoll.Mode
	// Notify selects cpoll vs spin-polling.
	Notify NotifyMode
	// PollInterval is the spin-polling period (30 fabric cycles in the
	// paper's experiment).
	PollInterval sim.Duration
	// PollFetchesPerRequest is the calibrated per-request cc-link tax
	// of spin polling at load (own-ring read plus the amortized share
	// of empty sweeps; see DESIGN.md calibration notes).
	PollFetchesPerRequest int
	// ResponseBatch amortizes the SQ handler's doorbell MMIO.
	ResponseBatch int
	// RingKind places the request rings (DRAM normally; NVM for the
	// transaction system where the rings double as the redo log, which
	// is what makes adaptive DDIO matter — paper Sec. IV-B, VI-A).
	RingKind memspace.Kind

	// Trace, when non-nil, attaches the observability collector: every
	// layer the request crosses (NIC, wire, ring, notification,
	// compute, memory) records virtual-time spans into it. Nil — the
	// default — is the fast path: figures are byte-identical to an
	// uninstrumented build and the request path stays allocation-free.
	Trace *obs.Trace
	// Metrics, when non-nil, receives the server's counter/gauge
	// series (ring depth, cpoll signal drops, QP retransmits, arena
	// occupancy) and is ticked on virtual time as requests complete.
	Metrics *obs.Registry
}

// DefaultServerOptions mirrors the prototype configuration.
func DefaultServerOptions() ServerOptions {
	return ServerOptions{
		Connections:           16,
		RingEntries:           64,
		EntryBytes:            128,
		Mode:                  cpoll.PointerBuffer,
		Notify:                NotifyCpoll,
		PollInterval:          75 * sim.Nanosecond, // 30 cycles at 400 MHz
		PollFetchesPerRequest: 2,
		ResponseBatch:         1,
	}
}

// Server is a RAMBDA server: rings + cpoll + accelerator + SQ handlers.
type Server struct {
	M    *Machine
	App  App
	Opts ServerOptions

	rings   []*ringbuf.Ring
	conns   []*ringbuf.ServerConn
	checker *cpoll.Checker
	ptrBuf  *ringbuf.PointerBuffer
	ctx     *AppCtx

	served int64
}

// NewServer allocates the server's communication state per paper
// Sec. III-E: request rings in a contiguous region, the cpoll region
// registered and pinned, and the rings' layouts ready to hand to
// clients.
func NewServer(m *Machine, app App, opts ServerOptions) *Server {
	if m.Accel == nil {
		panic("core: RAMBDA server requires an accelerator")
	}
	if opts.Connections <= 0 || opts.RingEntries <= 0 || opts.EntryBytes <= 0 {
		panic("core: bad server options")
	}
	ringBytes := uint64(opts.RingEntries * opts.EntryBytes)
	all := m.Space.Alloc(m.Name+":req-rings", ringBytes*uint64(opts.Connections), opts.RingKind)
	s := &Server{M: m, App: app, Opts: opts, ctx: &AppCtx{M: m, A: m.Accel, tr: opts.Trace}}
	for i := 0; i < opts.Connections; i++ {
		r := memspace.Range{Base: all.Base + memspace.Addr(uint64(i)*ringBytes), Size: ringBytes}
		s.rings = append(s.rings, ringbuf.NewRing(m.Space, ringbuf.NewLayout(r, opts.RingEntries)))
	}

	if opts.Notify != NotifyPolling {
		switch opts.Mode {
		case cpoll.Direct:
			m.Accel.Pin(all.Range)
			s.checker = cpoll.NewDirect(m.Coh, coherence.AgentAccel, s.rings, m.Accel.Config().LocalCacheBytes)
		default:
			preg := m.Space.Alloc(m.Name+":ptr-buf", uint64(opts.Connections*ringbuf.PtrEntryBytes), memspace.KindDRAM)
			s.ptrBuf = ringbuf.NewPointerBuffer(m.Space, preg.Range, opts.Connections)
			m.Accel.Pin(preg.Range)
			s.checker = cpoll.NewPointer(m.Coh, coherence.AgentAccel, s.ptrBuf, s.rings)
		}
	}
	s.conns = make([]*ringbuf.ServerConn, opts.Connections)

	if opts.Trace != nil {
		if s.checker != nil {
			s.checker.SetTrace(opts.Trace)
		}
		m.NIC.SetObs(opts.Trace)
	}
	if opts.Metrics != nil {
		if s.checker != nil {
			s.checker.RegisterMetrics(opts.Metrics, "cpoll")
		}
		m.NIC.RegisterMetrics(opts.Metrics, "nic.server")
		opts.Metrics.Gauge("server.served", func() float64 { return float64(s.served) })
	}
	return s
}

// Served reports completed requests.
func (s *Server) Served() int64 { return s.served }

// Checker exposes cpoll statistics (nil under polling).
func (s *Server) Checker() *cpoll.Checker { return s.checker }

// Ring returns connection idx's request ring.
func (s *Server) Ring(idx int) *ringbuf.Ring { return s.rings[idx] }

// PtrAddr returns the pointer-buffer slot address for a connection (0
// in direct/polling modes).
func (s *Server) PtrAddr(idx int) memspace.Addr {
	if s.ptrBuf == nil {
		return 0
	}
	return s.ptrBuf.Addr(idx)
}

// bindConn installs the response transport for a connection.
func (s *Server) bindConn(idx int, respLayout ringbuf.Layout, t ringbuf.Transport) {
	sc := ringbuf.NewServerConn(s.rings[idx], respLayout, t)
	if s.Opts.Trace != nil {
		sc.SetTrace(s.Opts.Trace)
	}
	s.conns[idx] = sc
}

// Serve walks one request on connection idx that became visible in
// server memory at `arrive`, through notification, the APU, and the
// response path. It returns the response payload and the time it is
// visible at the client.
func (s *Server) Serve(arrive sim.Time, idx int) ([]byte, sim.Time) {
	a := s.M.Accel
	var t sim.Time

	switch s.Opts.Notify {
	case NotifyPolling:
		// Discovery waits for the next sweep; each request pays the
		// calibrated share of polling fetch traffic on the cc-link.
		t = arrive + s.Opts.PollInterval/2
		ringHead := s.rings[idx].EntryAddr(0)
		for i := 0; i < s.Opts.PollFetchesPerRequest; i++ {
			t = a.Fetch(t, ringHead, coherence.LineSize)
		}
		if s.Opts.Trace != nil {
			s.Opts.Trace.Span("poll-discover", obs.StageNotify, arrive, t)
		}
	default:
		// The invalidation reaches the accelerator over the cc-link;
		// the scheduler pops dirty rings FIFO and harvests.
		t = arrive + UPIHop
		if s.Opts.Trace != nil {
			s.Opts.Trace.Span("cpoll-signal", obs.StageNotify, arrive, t)
		}
		found := false
		for !found {
			di, ok := s.checker.NextDirty()
			if !ok {
				// Coalesced with an earlier signal that was already
				// harvested together with this entry's arrival; the
				// request is present in the ring regardless.
				break
			}
			var n int
			n, t = s.checker.Harvest(t, di, a.Fetch)
			found = di == idx && n > 0
		}
	}

	notified := t
	conn := s.conns[idx]
	payload, eidx, ok := conn.NextRequest()
	if !ok {
		panic(fmt.Sprintf("core: serve on connection %d with empty ring", idx))
	}
	// The APU fetches the request entry itself — the abstraction's
	// "fetch application data directly" property (Sec. III-A).
	entryAddr := s.rings[idx].EntryAddr(eidx)
	t = a.ReadData(t, entryAddr, ringbuf.HeaderBytes+len(payload))
	if s.Opts.Trace != nil {
		s.Opts.Trace.Span("entry-read", obs.StageRing, notified, t)
	}

	resp, t := s.App.Handle(s.ctx, t, payload)

	conn.Complete(eidx)
	s.M.Coh.Reacquire(coherence.AgentAccel, entryAddr, s.Opts.EntryBytes)
	done := conn.Respond(t, resp)
	s.served++
	if s.Opts.Metrics != nil {
		s.Opts.Metrics.Tick(done)
	}
	return resp, done
}

// Client is a remote RAMBDA client: one connection (ring pair + QP) to
// a server.
type Client struct {
	M      *Machine
	Server *Server
	Idx    int

	conn *ringbuf.Conn
	qp   *rnic.QP
}

// ConnectClient establishes connection idx from machine cm to the
// server: QPs are paired, memory regions registered with their TPH
// attributes (DRAM rings with the hint, NVM without — adaptive DDIO),
// and the response ring allocated in client memory.
func ConnectClient(cm *Machine, s *Server, idx int) *Client {
	if idx < 0 || idx >= len(s.rings) {
		panic("core: connection index out of range")
	}
	// Client-side response ring + staging.
	respReg := cm.Space.Alloc(fmt.Sprintf("%s:resp-ring-%d", cm.Name, idx),
		uint64(s.Opts.RingEntries*s.Opts.EntryBytes), memspace.KindDRAM)
	respLayout := ringbuf.NewLayout(respReg.Range, s.Opts.RingEntries)
	staging := cm.Space.Alloc(fmt.Sprintf("%s:staging-%d", cm.Name, idx),
		uint64(s.Opts.EntryBytes+ringbuf.PtrEntryBytes), memspace.KindDRAM)

	// QP pair.
	cq, sq := cm.NIC.NewQP(), s.M.NIC.NewQP()
	rnic.ConnectQP(cq, sq)

	// Adaptive DDIO MR registration (server side, paper Sec. III-D
	// guideline 2): DRAM regions get the TPH hint, NVM regions do not,
	// so DMA into the (NVM-resident) transaction rings bypasses the
	// cache and avoids write amplification.
	ringTPH := s.M.Space.KindOf(s.rings[idx].Range.Base) == memspace.KindDRAM
	s.M.NIC.RegisterMR(s.rings[idx].Range, ringTPH)
	if s.ptrBuf != nil {
		s.M.NIC.RegisterMR(s.ptrBuf.Range(), true)
	}
	cm.NIC.RegisterMR(respReg.Range, true)

	// Client -> server transport.
	ct := ringbuf.NewRDMATransport(cq, cm.Space, staging)
	conn := ringbuf.NewConn(s.rings[idx].Layout, ringbuf.NewRing(cm.Space, respLayout), ct, s.PtrAddr(idx))

	// Observability wiring: the client NIC executes the requester-side
	// WQEs (its spans cover both DMA legs), and the connection wraps
	// deliveries in ring spans. Metrics get per-connection ring depth
	// and the client QP's reliability counters.
	if tr := s.Opts.Trace; tr != nil {
		cm.NIC.SetObs(tr)
		conn.SetTrace(tr)
	}
	if reg := s.Opts.Metrics; reg != nil {
		conn.RegisterMetrics(reg, fmt.Sprintf("conn.%d", idx))
		cq.RegisterMetrics(reg, fmt.Sprintf("qp.%d", idx))
		cm.NIC.RegisterMetrics(reg, "nic.client")
	}

	// Server -> client transport: the accelerator's SQ handler.
	srvStaging := s.M.Space.Alloc(fmt.Sprintf("%s:sq-staging-%d", s.M.Name, idx),
		uint64(4*s.Opts.EntryBytes), memspace.KindDRAM)
	handler := accel.NewSQHandler(s.M.Accel, sq, s.M.PCIeOut, srvStaging, s.Opts.ResponseBatch)
	s.bindConn(idx, respLayout, handler)

	return &Client{M: cm, Server: s, Idx: idx, conn: conn, qp: cq}
}

// CanSend reports whether the connection has a credit.
func (c *Client) CanSend() bool { return c.conn.CanSend() }

// Call sends a request at `now` and walks it end to end, returning the
// response and the time it became visible in client memory.
func (c *Client) Call(now sim.Time, payload []byte) ([]byte, sim.Time) {
	tr := c.Server.Opts.Trace
	var sp obs.SpanID
	if tr != nil {
		sp = tr.Push("request", obs.StageOther, now)
	}
	arrive := c.conn.Send(now, payload)
	resp, done := c.Server.Serve(arrive, c.Idx)
	got, ok := c.conn.PollResponse()
	if !ok {
		panic("core: response ring empty after serve")
	}
	_ = got
	if tr != nil {
		tr.Pop(sp, done)
	}
	return resp, done
}
