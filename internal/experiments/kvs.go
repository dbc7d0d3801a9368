package experiments

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rambda/internal/core"
	"rambda/internal/hostcpu"
	"rambda/internal/kvs"
	"rambda/internal/memspace"
	"rambda/internal/power"
	"rambda/internal/sim"
	"rambda/internal/smartnic"
)

// KVSConfig sizes the Figs. 8-10 key-value store experiments. The
// paper preloads 100M 64 B pairs (~7 GB); the simulated store is scaled
// down with the SmartNIC cache held at the same cache:data ratio
// (512 MB : 7 GB).
type KVSConfig struct {
	Keys        int
	ValueBytes  int
	Connections int
	Batch       int
	Requests    int
	ZipfTheta   float64
	Seed        uint64
}

// DefaultKVSConfig returns the scaled experiment.
func DefaultKVSConfig() KVSConfig {
	return KVSConfig{
		Keys:        1 << 20,
		ValueBytes:  46, // key 18 B + value 46 B = the paper's 64 B pairs
		Connections: 10,
		Batch:       32,
		Requests:    60000,
		ZipfTheta:   0.99,
		Seed:        8,
	}
}

// kvsGen returns the Figs. 8-10 request generator: uniform or
// Zipf-skewed key choice, GET-only or 50/50 GET/PUT.
func kvsGen(cfg KVSConfig, skewed, writes bool) func(*kvsWork) {
	rng := sim.NewRNG(cfg.Seed + 0x17)
	var zipf *sim.Zipf
	if skewed {
		zipf = sim.NewZipf(rng, uint64(cfg.Keys), cfg.ZipfTheta)
	}
	valBase := make([]byte, cfg.ValueBytes)
	return func(wk *kvsWork) {
		var k int
		if skewed {
			k = int(zipf.Next())
		} else {
			k = rng.Intn(cfg.Keys)
		}
		wk.op = kvs.OpGet
		wk.key = appendKVSKey(wk.key[:0], k)
		if writes && rng.Intn(2) == 0 {
			binary.LittleEndian.PutUint64(valBase, uint64(k))
			wk.op = kvs.OpPut
			wk.val = append(wk.val[:0], valBase...)
		}
	}
}

// storeShape is what a preloaded hash store's bytes depend on: the keys
// preloaded, their value size and the pool's item capacity. Stores of
// one shape preload byte-identical, whatever machine they serve.
type storeShape struct{ keys, valueBytes, poolItems int }

// storeShape is the Figs. 8-10 store: the experiment's pairs, with no
// pool room beyond them.
func (cfg KVSConfig) storeShape() storeShape {
	return storeShape{keys: cfg.Keys, valueBytes: cfg.ValueBytes, poolItems: cfg.Keys}
}

// preloadStore builds a hash store of the given shape, preloaded, in an
// address space of its own. A point maps it into its server's space
// with kvs.Store.AdoptInto as that space's first allocation, where a
// store built in the server's space would have been placed.
func preloadStore(sh storeShape) *kvs.Store {
	store := hashStore(memspace.New(), memspace.KindDRAM, sh.keys, sh.poolItems)
	preload(store, sh.keys, sh.valueBytes)
	return store
}

// storePool hands one spec's points preloaded stores, so the spec
// preloads once per worker instead of once per point. A store is
// checkpointed right after its preload; checkin rolls it back to that
// state and keeps it for the next point of its shape. Every point
// therefore sees exactly the store a fresh preload would build, at any
// worker count. A store is kept only while some ask, memo hits
// included, has yet to be made, so at most one store per running point
// exists, and after the spec's last ask its pool holds nothing.
type storePool struct {
	mu   sync.Mutex
	left int // planned asks not yet made
	idle map[storeShape][]*kvs.Store
}

// newStorePool plans a pool for asks points.
func newStorePool(asks int) *storePool {
	return &storePool{left: asks, idle: map[storeShape][]*kvs.Store{}}
}

// checkout counts an ask and returns an idle store of shape sh, or
// preloads a new one (outside the lock, so workers preload in parallel).
func (p *storePool) checkout(sh storeShape) *kvs.Store {
	p.mu.Lock()
	p.left--
	var st *kvs.Store
	if l := p.idle[sh]; len(l) > 0 {
		st = l[len(l)-1]
		p.idle[sh] = l[:len(l)-1]
	}
	if p.left <= 0 {
		p.idle = nil // no later checkout will want them
	}
	p.mu.Unlock()
	if st == nil {
		st = preloadStore(sh)
		st.Checkpoint()
	}
	return st
}

// skip counts an ask the memo answered without a checkout.
func (p *storePool) skip() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.left--; p.left <= 0 {
		p.idle = nil
	}
}

// checkin rolls st back to its preloaded state and keeps it for a later
// checkout; with no ask left to make, it lets st go.
func (p *storePool) checkin(sh storeShape, st *kvs.Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.left > 0 {
		st.Rollback()
		p.idle[sh] = append(p.idle[sh], st)
	}
}

// newRambdaKVS builds the RAMBDA KVS (Sec. IV-A) for Figs. 8-10 over a
// preloaded store, mapped into the server's space as its data kind.
func newRambdaKVS(cfg KVSConfig, store *kvs.Store, variant core.AccelVariant, batch int) *kvsServer {
	return newKVSServer(kvsServeOpts{
		Variant:       variant,
		Connections:   cfg.Connections,
		RingEntries:   cfg.Batch * 4,
		EntryBytes:    128,
		ResponseBatch: batch,
	}, func(m *core.Machine) kvs.Backend {
		store.AdoptInto(m.Space, m.DataKind())
		return store
	})
}

// --- CPU KVS (MICA-backed two-sided RDMA RPC) ---

// cpuKVSCycles is the per-request instruction path of the optimized
// MICA server (hashing, probing, response marshalling).
const cpuKVSCycles = 900

type cpuKVS struct {
	kvsClients

	// Per-system request-path scratch, same discipline as kvsServer.
	sc      kvs.Scratch
	respBuf []byte
}

func newCPUKVS(cfg KVSConfig, store *kvs.Store, batch int, jitter bool) *cpuKVS {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Cores: 10}) // paper: ten server threads
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)
	store.AdoptInto(sm.Space, memspace.KindDRAM)
	c := &cpuKVS{}

	h := core.CPUHandler(func(reqBytes []byte) ([]byte, hostcpu.Work) {
		work := hostcpu.Work{Cycles: cpuKVSCycles, AccessBytes: 64, Addr: store.IndexRange().Base}
		req, err := kvs.DecodeRequest(reqBytes)
		if err != nil {
			c.respBuf = kvs.AppendResponse(c.respBuf[:0], kvs.Response{Status: kvs.StatusError})
			return c.respBuf, work
		}
		resp, trace := kvs.ApplyScratch(store, req, &c.sc)
		if len(trace) > 0 {
			work.Addr = trace[0].Addr
		}
		work.Accesses = len(trace)
		c.respBuf = kvs.AppendResponse(c.respBuf[:0], resp)
		return c.respBuf, work
	})
	opts := core.DefaultCPUServerOptions()
	opts.Connections = cfg.Connections
	opts.RingEntries = cfg.Batch * 4
	opts.EntryBytes = 128
	opts.Batch = batch
	if jitter {
		opts.JitterProb = 0.03
		opts.JitterCycles = 9000 // ~4.5us scheduling hiccup
		opts.JitterSeed = cfg.Seed
	}
	s := core.NewCPUServer(sm, h, opts)
	for i := 0; i < cfg.Connections; i++ {
		c.conns = append(c.conns, core.ConnectCPUClient(cm, s, i))
	}
	return c
}

// --- SmartNIC KVS (KV-Direct/StRoM emulated on ARM cores) ---

// snicKVS serves requests on the SmartNIC's ARM cores with a 512 MB
// (scaled) on-board cache; misses fetch from host memory over PCIe.
type snicKVS struct {
	snic  *smartnic.SmartNIC
	cache *smartnic.LRUCache
	store *kvs.Store
	net   sim.Duration // client<->NIC one-way

	// sc is the store's per-system value/trace scratch; cache inserts
	// must NOT alias it (they copy), since it is overwritten per request.
	sc kvs.Scratch
}

// snicARMCycles is the per-request ARM processing, calibrated so eight
// ARM cores on all-local data match six Intel cores (Sec. VI-B).
const snicARMCycles = 2200

// newSNICKVS builds the SmartNIC baseline: ARM cores pipeline through
// the eight-core pool; request batching has no further effect on the
// dependent host-access chain.
func newSNICKVS(cfg KVSConfig, store *kvs.Store) *snicKVS {
	space := memspace.New()
	store.AdoptInto(space, memspace.KindDRAM)
	nic := smartnic.New(smartnic.DefaultConfig("bf2"), newHostMem(space))
	// Cache : data ratio follows the paper (512MB : 7GB ~= 1:14).
	dataBytes := int64(cfg.Keys) * 160
	s := &snicKVS{
		snic:  nic,
		cache: smartnic.NewLRUCache(dataBytes / 14),
		store: store,
		net:   core.NetOneWay,
	}
	// Warm the cache with the hottest keys (the generator's Zipf ranks
	// low indices hottest), standing in for a long-running server whose
	// cache reached steady state.
	key := appendKVSKey(nil, 0)
	var trace []kvs.Access
	for i := 0; i < cfg.Keys; i++ {
		// Fresh value allocation per iteration (dst nil): the cache
		// retains it and copies the key. Only the trace scratch is
		// reused.
		v, t, ok := store.GetInto(nil, trace[:0], key)
		trace = t
		if !ok {
			panic("snic prewarm: missing key")
		}
		before := s.cache.Len()
		s.cache.PutBytes(key, v)
		if s.cache.Len() == before {
			break // capacity reached
		}
		nextKVSKey(key)
	}
	return s
}

func (s *snicKVS) callOn(_ int, now sim.Time, req kvs.Request) (kvs.Response, sim.Time) {
	// Request arrives at the NIC (no host PCIe on the network path).
	arrive := now + s.net

	// Walk the processing chain: ARM instruction path, then the KVS
	// accesses — on-board DRAM for cache hits, one-sided RDMA over the
	// PCIe link for misses. The accesses are a dependent chain, so the
	// core is blocked for the whole walk (the mechanism behind Fig. 1
	// and the SmartNIC's distribution sensitivity in Fig. 8).
	t := arrive + sim.Duration(float64(snicARMCycles)/s.snic.Config().ClockHz*float64(sim.Second))
	var resp kvs.Response
	switch req.Op {
	case kvs.OpGet:
		if v, ok := s.cache.GetBytes(req.Key); ok {
			for i := 0; i < 3; i++ {
				t = s.snic.LocalAccess(t, 64)
			}
			resp = kvs.Response{Status: kvs.StatusOK, Val: v}
		} else {
			r, trace := kvs.ApplyScratch(s.store, req, &s.sc)
			for range trace {
				t = s.snic.HostAccess(t, 64, 1)
			}
			resp = r
			if r.Status == kvs.StatusOK {
				// The cache retains the value: copy it out of the scratch.
				s.cache.PutBytes(req.Key, append([]byte(nil), r.Val...))
			}
		}
	case kvs.OpPut:
		// Writes go to the host copy; the cached entry is refreshed.
		r, trace := kvs.ApplyScratch(s.store, req, &s.sc)
		for range trace {
			t = s.snic.HostAccess(t, 64, 1)
		}
		s.cache.PutBytes(req.Key, append([]byte(nil), req.Val...))
		resp = r
	default:
		resp = kvs.Response{Status: kvs.StatusError}
	}
	// The core was occupied for the whole walk; queue behind the eight
	// ARM cores.
	_, end := s.snic.Cores().Occupy(arrive, t-arrive)
	return resp, end + s.net
}

// kvsPoint is one Figs. 8-10 and Tab. III simulation. It carries only
// what its build reads (a SmartNIC point has no batch, and only a CPU
// point sets jitter), so equal simulations compare equal.
type kvsPoint struct {
	sys            string
	batch, window  int
	skewed, writes bool
	jitter         bool
}

// kvsAt is sys's point at batch with window requests in flight per
// connection. The SmartNIC ignores batch, so its point drops it.
func kvsAt(sys string, batch, window int, skewed, writes bool) kvsPoint {
	if sys == "SmartNIC" {
		batch = 0
	}
	return kvsPoint{sys: sys, batch: batch, window: window, skewed: skewed, writes: writes}
}

// fig8Point is the Fig. 8 operating point: batch 32, with a full batch
// in flight per connection. Tab. III measures at its uniform GET.
func fig8Point(cfg KVSConfig, sys string, skewed, writes bool) kvsPoint {
	return kvsAt(sys, cfg.Batch, cfg.Batch, skewed, writes)
}

// build makes a fresh, isolated system (machines, cache) around a
// checked-out store, so no point observes another's state.
func (p kvsPoint) build(cfg KVSConfig, st *kvs.Store) kvsCaller {
	switch p.sys {
	case "CPU":
		return newCPUKVS(cfg, st, p.batch, p.jitter)
	case "SmartNIC":
		return newSNICKVS(cfg, st)
	case "RAMBDA":
		return newRambdaKVS(cfg, st, core.AccelBase, p.batch)
	case "RAMBDA-LD":
		return newRambdaKVS(cfg, st, core.AccelLD, p.batch)
	case "RAMBDA-LH":
		return newRambdaKVS(cfg, st, core.AccelLH, p.batch)
	}
	panic("experiments: unknown KVS system " + p.sys)
}

// kvsResult is what the rows read of a point's simulation.
type kvsResult struct {
	throughput float64
	avg, p99   sim.Time
}

// simulate runs the point's workload on a system built around st.
func (p kvsPoint) simulate(cfg KVSConfig, st *kvs.Store) kvsResult {
	res := measureKVS(p.build(cfg, st), cfg.Connections*p.window, cfg.Requests, cfg.Seed, kvsGen(cfg, p.skewed, p.writes))
	return kvsResult{res.Throughput, res.Latency.Mean(), res.Latency.P99()}
}

// kvsMemo simulates each distinct point once for the specs sharing it.
// It keeps what rows read, not the *sim.Result and its histogram.
type kvsMemo struct {
	mu   sync.Mutex
	runs map[kvsPoint]func() kvsResult
}

func newKVSMemo() *kvsMemo { return &kvsMemo{runs: map[kvsPoint]func() kvsResult{}} }

// ask answers one of pool's asks for p. The first ask plans p's run on
// its pool; a repeat only counts against its own. One ask runs it and
// the others wait; a run asks for no other point, so no wait deadlocks.
// If it panics, every ask for p panics naming p, so no row reads a zero.
func (m *kvsMemo) ask(cfg KVSConfig, pool *storePool, p kvsPoint) kvsResult {
	m.mu.Lock()
	run, repeat := m.runs[p]
	if !repeat {
		run = sync.OnceValue(func() kvsResult {
			defer func() {
				if v := recover(); v != nil {
					panic(fmt.Sprintf("experiments: KVS point %+v: %v", p, v))
				}
			}()
			sh := cfg.storeShape()
			st := pool.checkout(sh)
			res := p.simulate(cfg, st)
			pool.checkin(sh, st)
			return res
		})
		m.runs[p] = run
	}
	m.mu.Unlock()
	if repeat {
		pool.skip()
	}
	return run()
}

// measure answers a KVS spec's asks from m, with a store pool of the
// spec's own (-only selects whole specs) planned for asks asks.
func (m *kvsMemo) measure(cfg KVSConfig, asks int) func(kvsPoint) kvsResult {
	pool := newStorePool(asks)
	return func(p kvsPoint) kvsResult { return m.ask(cfg, pool, p) }
}

// kvsPlan is one KVS spec's sweep.
type kvsPlan = sweep[kvsPoint, kvsResult]

// kvsPlans lists the KVS specs in print order. They share one memo, so
// a point two of them name is simulated once.
func kvsPlans(cfg KVSConfig) []kvsPlan {
	memo := newKVSMemo()
	_, f8 := fig8Plan(cfg, memo)
	_, f9 := fig9Plan(cfg, memo)
	_, f10 := fig10Plan(cfg, memo)
	_, t3 := tab3Plan(cfg, memo)
	return []kvsPlan{f8, f9, f10, t3}
}

// KVSSpecs returns the fig8, fig9, fig10 and tab3 specs in print order,
// sharing one memo; run alone, each simulates all its points.
func KVSSpecs(cfg KVSConfig) []Spec {
	var specs []Spec
	for _, pl := range kvsPlans(cfg) {
		specs = append(specs, pl.spec())
	}
	return specs
}

// kvsSystems is the Figs. 8-9 system matrix in table order.
var kvsSystems = []string{"CPU", "SmartNIC", "RAMBDA", "RAMBDA-LD", "RAMBDA-LH"}

var kvsDists = []struct {
	name   string
	skewed bool
}{{"uniform", false}, {"zipf", true}}

// Fig8Row is one bar of Fig. 8.
type Fig8Row struct {
	System     string
	Dist       string // uniform | zipf
	Workload   string // get | mixed
	Throughput float64
}

// fig8Plan enumerates (system x dist x workload) at the Fig. 8 point.
func fig8Plan(cfg KVSConfig, memo *kvsMemo) ([]Fig8Row, kvsPlan) {
	workloads := []struct {
		name   string
		writes bool
	}{{"get", false}, {"mixed", true}}
	var rows []Fig8Row
	pl := kvsPlan{table: Table{
		ID:      "fig8",
		Title:   "KVS peak throughput, batch 32",
		Columns: []string{"system", "dist", "workload", "throughput"},
		Notes: []string{
			"paper: CPU ~= RAMBDA (network-bound; RAMBDA +2.3-8.3%); SmartNIC uniform ~= 27-29% of its zipf",
		},
	}}
	for _, sys := range kvsSystems {
		for _, dist := range kvsDists {
			for _, wl := range workloads {
				rows = append(rows, Fig8Row{System: sys, Dist: dist.name, Workload: wl.name})
				pl.points = append(pl.points, fig8Point(cfg, sys, dist.skewed, wl.writes))
			}
		}
	}
	pl.measure = memo.measure(cfg, len(pl.points))
	pl.label = func(i int) string { return rows[i].System + "/" + rows[i].Dist + "/" + rows[i].Workload }
	pl.fill = func(i int, r kvsResult) { rows[i].Throughput = r.throughput }
	pl.cells = func(i int) []string {
		return []string{rows[i].System, rows[i].Dist, rows[i].Workload, mops(rows[i].Throughput)}
	}
	return rows, pl
}

// Fig8 measures peak throughput (batch 32) for every design under both
// distributions and workload mixes.
func Fig8(cfg KVSConfig) []Fig8Row { return runAlone(fig8Plan(cfg, newKVSMemo())) }

// Fig9Row is one latency bar of Fig. 9 (100% GET).
type Fig9Row struct {
	System string
	Dist   string
	Avg    sim.Time
	P99    sim.Time // zero when inapplicable (LD/LH emulation)
}

// fig9Plan enumerates (system x dist) latency points. Latency is
// measured at moderate load (window 8) so path latency and jitter, not
// closed-loop equilibrium, dominate. The SmartNIC saturates far below
// the others; its latency is measured at a sustainable load (window 1),
// like the paper's per-system latency runs.
func fig9Plan(cfg KVSConfig, memo *kvsMemo) ([]Fig9Row, kvsPlan) {
	var rows []Fig9Row
	pl := kvsPlan{table: Table{
		ID:      "fig9",
		Title:   "KVS latency, 100% GET, batch 32",
		Columns: []string{"system", "dist", "avg", "p99"},
		Notes: []string{
			"paper: RAMBDA avg slightly above CPU (UPI hop); LD below; p99: RAMBDA 30.1% under CPU, 52.0% under SmartNIC",
			"LD/LH tail marked n/a exactly as in the paper (average-only emulation)",
		},
	}}
	for _, sys := range kvsSystems {
		window := 8
		if sys == "SmartNIC" {
			window = 1
		}
		for _, dist := range kvsDists {
			p := kvsAt(sys, cfg.Batch, window, dist.skewed, false)
			p.jitter = sys == "CPU"
			rows = append(rows, Fig9Row{System: sys, Dist: dist.name})
			pl.points = append(pl.points, p)
		}
	}
	pl.measure = memo.measure(cfg, len(pl.points))
	pl.label = func(i int) string { return rows[i].System + "/" + rows[i].Dist }
	pl.fill = func(i int, r kvsResult) {
		rows[i].Avg = r.avg
		if sys := rows[i].System; sys != "RAMBDA-LD" && sys != "RAMBDA-LH" { // LD/LH report no tail
			rows[i].P99 = r.p99
		}
	}
	pl.cells = func(i int) []string {
		p99 := "n/a"
		if rows[i].P99 != 0 {
			p99 = rows[i].P99.String()
		}
		return []string{rows[i].System, rows[i].Dist, rows[i].Avg.String(), p99}
	}
	return rows, pl
}

// Fig9 measures average and tail latency under moderate load (100%
// GET, batch 32).
func Fig9(cfg KVSConfig) []Fig9Row { return runAlone(fig9Plan(cfg, newKVSMemo())) }

// Fig10Row is one point of the batch sweep.
type Fig10Row struct {
	System     string
	Batch      int
	Throughput float64
	Avg        sim.Time
}

// fig10Plan enumerates the batch sweep. CPU and SmartNIC clients
// pipeline `batch` requests per connection (the batch is their window);
// RAMBDA needs no request batching — its batch knob only amortizes
// response doorbells, and the client window stays at the ring depth
// (paper Sec. VI-B).
func fig10Plan(cfg KVSConfig, memo *kvsMemo) ([]Fig10Row, kvsPlan) {
	var rows []Fig10Row
	pl := kvsPlan{table: Table{
		ID:      "fig10",
		Title:   "Batch size impact (100% GET, Zipf)",
		Columns: []string{"system", "batch", "throughput", "avg latency"},
		Notes: []string{
			"paper: batching lifts CPU/SmartNIC ~12x and RAMBDA ~2x; RAMBDA latency grows sub-linearly",
		},
	}}
	for _, sys := range []string{"CPU", "SmartNIC", "RAMBDA"} {
		for _, b := range []int{1, 2, 4, 8, 16, 32} {
			window := b
			if sys == "RAMBDA" {
				window = cfg.Batch
			}
			rows = append(rows, Fig10Row{System: sys, Batch: b})
			pl.points = append(pl.points, kvsAt(sys, b, window, true, false))
		}
	}
	pl.measure = memo.measure(cfg, len(pl.points))
	pl.label = func(i int) string { return fmt.Sprintf("%s/batch=%d", rows[i].System, rows[i].Batch) }
	pl.fill = func(i int, r kvsResult) { rows[i].Throughput, rows[i].Avg = r.throughput, r.avg }
	pl.cells = func(i int) []string {
		return []string{rows[i].System, fmt.Sprint(rows[i].Batch), mops(rows[i].Throughput), rows[i].Avg.String()}
	}
	return rows, pl
}

// Fig10 sweeps the batch size on the Zipf GET workload. The client
// window equals the batch size (HERD clients post batches of B).
func Fig10(cfg KVSConfig) []Fig10Row { return runAlone(fig10Plan(cfg, newKVSMemo())) }

// Tab3Row is one column of Tab. III.
type Tab3Row struct {
	System  string
	Watts   float64
	KopPerW float64
}

// tab3Plan enumerates the three power-efficiency measurements at the
// Fig. 8 uniform-GET operating point.
func tab3Plan(cfg KVSConfig, memo *kvsMemo) ([]Tab3Row, kvsPlan) {
	rows := []Tab3Row{
		{System: "CPU", Watts: power.CPUFullLoad},
		{System: "SmartNIC", Watts: power.SmartNICARMs},
		{System: "RAMBDA", Watts: power.RambdaFPGA},
	}
	pl := kvsPlan{table: Table{
		ID:      "tab3",
		Title:   "Power efficiency, GET/uniform (Kop/W)",
		Columns: []string{"system", "watts", "Kop/W"},
		Notes: []string{
			"paper: CPU 130.4, SmartNIC 25.2, RAMBDA 188.7 Kop/W; box-level power -38% with RAMBDA",
			fmt.Sprintf("whole-box reduction (IPMI constants): %.0f%%", power.BoxReduction()*100),
		},
	}}
	for _, r := range rows {
		pl.points = append(pl.points, fig8Point(cfg, r.System, false, false))
	}
	pl.measure = memo.measure(cfg, len(pl.points))
	pl.label = func(i int) string { return rows[i].System }
	pl.fill = func(i int, r kvsResult) { rows[i].KopPerW = power.KopsPerWatt(r.throughput, rows[i].Watts) }
	pl.cells = func(i int) []string { return []string{rows[i].System, f1(rows[i].Watts), f1(rows[i].KopPerW)} }
	return rows, pl
}

// Tab3 computes power efficiency at the Fig. 8 uniform-GET operating
// point using the paper's measured component wattages.
func Tab3(cfg KVSConfig) []Tab3Row { return runAlone(tab3Plan(cfg, newKVSMemo())) }
