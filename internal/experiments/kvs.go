package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/core"
	"rambda/internal/hostcpu"
	"rambda/internal/kvs"
	"rambda/internal/memspace"
	"rambda/internal/power"
	"rambda/internal/runner"
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
	Parallel    int // sweep-point workers; 0 = runner default
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

// measure runs the workload against sys with window requests in flight
// per connection.
func (cfg KVSConfig) measure(sys kvsCaller, skewed, writes bool, window int) *sim.Result {
	return measureKVS(sys, cfg.Connections*window, cfg.Requests, cfg.Seed, kvsGen(cfg, skewed, writes))
}

// preloadStore builds a hash store holding the experiment's pairs.
func preloadStore(space *memspace.Space, kind memspace.Kind, cfg KVSConfig) *kvs.Store {
	store := hashStore(space, kind, cfg.Keys, cfg.Keys)
	preload(store, cfg.Keys, cfg.ValueBytes)
	return store
}

// newRambdaKVS builds the RAMBDA KVS (Sec. IV-A) for Figs. 8-10.
func newRambdaKVS(cfg KVSConfig, variant core.AccelVariant, batch int) *kvsServer {
	return newKVSServer(kvsServeOpts{
		Variant:       variant,
		Connections:   cfg.Connections,
		RingEntries:   cfg.Batch * 4,
		EntryBytes:    128,
		ResponseBatch: batch,
	}, func(m *core.Machine) kvs.Backend { return preloadStore(m.Space, m.DataKind(), cfg) })
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

func newCPUKVS(cfg KVSConfig, batch int, jitter bool) *cpuKVS {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Cores: 10}) // paper: ten server threads
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)
	store := preloadStore(sm.Space, memspace.KindDRAM, cfg)
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
	cfg   KVSConfig
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
func newSNICKVS(cfg KVSConfig) *snicKVS {
	space := memspace.New()
	store := preloadStore(space, memspace.KindDRAM, cfg)
	nic := smartnic.New(smartnic.DefaultConfig("bf2"), newHostMem(space))
	// Cache : data ratio follows the paper (512MB : 7GB ~= 1:14).
	dataBytes := int64(cfg.Keys) * 160
	s := &snicKVS{
		cfg:   cfg,
		snic:  nic,
		cache: smartnic.NewLRUCache(dataBytes / 14),
		store: store,
		net:   core.NetOneWay,
	}
	// Warm the cache with the hottest keys (the generator's Zipf ranks
	// low indices hottest), standing in for a long-running server whose
	// cache reached steady state.
	var key []byte
	var trace []kvs.Access
	for i := 0; i < cfg.Keys; i++ {
		key = appendKVSKey(key[:0], i)
		// Fresh value allocation per iteration (dst nil): the cache
		// retains it. Only the trace scratch is reused.
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

// Fig8Row is one bar of Fig. 8.
type Fig8Row struct {
	System     string
	Dist       string // uniform | zipf
	Workload   string // get | mixed
	Throughput float64
}

// kvsSystem is one design of the Fig. 8-10 matrix.
type kvsSystem struct {
	name string
	mk   func() kvsCaller
}

// kvsSystems enumerates the Fig. 8-10 system matrix in table order.
// Each factory builds a fresh, fully isolated system (machines, store,
// cache), so one sweep point never observes another's state.
func kvsSystems(cfg KVSConfig) []kvsSystem {
	return []kvsSystem{
		{"CPU", func() kvsCaller { return newCPUKVS(cfg, cfg.Batch, false) }},
		{"SmartNIC", func() kvsCaller { return newSNICKVS(cfg) }},
		{"RAMBDA", func() kvsCaller { return newRambdaKVS(cfg, core.AccelBase, cfg.Batch) }},
		{"RAMBDA-LD", func() kvsCaller { return newRambdaKVS(cfg, core.AccelLD, cfg.Batch) }},
		{"RAMBDA-LH", func() kvsCaller { return newRambdaKVS(cfg, core.AccelLH, cfg.Batch) }},
	}
}

var kvsDists = []struct {
	name   string
	skewed bool
}{{"uniform", false}, {"zipf", true}}

// fig8Plan enumerates (system x dist x workload) as runner jobs.
func fig8Plan(cfg KVSConfig) ([]Fig8Row, []runner.Job) {
	systems := kvsSystems(cfg)
	workloads := []struct {
		name   string
		writes bool
	}{{"get", false}, {"mixed", true}}

	type point struct {
		system string
		mk     func() kvsCaller
		dist   string
		skewed bool
		wl     string
		writes bool
	}
	var points []point
	for _, s := range systems {
		for _, dist := range kvsDists {
			for _, wl := range workloads {
				points = append(points, point{s.name, s.mk, dist.name, dist.skewed, wl.name, wl.writes})
			}
		}
	}
	rows := make([]Fig8Row, len(points))
	jobs := runner.Jobs("fig8", len(points),
		func(i int) string { return points[i].system + "/" + points[i].dist + "/" + points[i].wl },
		func(i int) {
			p := points[i]
			res := cfg.measure(p.mk(), p.skewed, p.writes, cfg.Batch)
			rows[i] = Fig8Row{System: p.system, Dist: p.dist, Workload: p.wl, Throughput: res.Throughput}
		})
	return rows, jobs
}

// Fig8 measures peak throughput (batch 32) for every design under both
// distributions and workload mixes.
func Fig8(cfg KVSConfig) []Fig8Row {
	rows, jobs := fig8Plan(cfg)
	runner.MustRun(cfg.Parallel, jobs)
	return rows
}

func fig8Render(rows []Fig8Row) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "KVS peak throughput, batch 32",
		Columns: []string{"system", "dist", "workload", "throughput"},
		Notes: []string{
			"paper: CPU ~= RAMBDA (network-bound; RAMBDA +2.3-8.3%); SmartNIC uniform ~= 27-29% of its zipf",
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, r.Dist, r.Workload, mops(r.Throughput))
	}
	return t
}

// Fig8Spec exposes the sweep for a shared pool.
func Fig8Spec(cfg KVSConfig) Spec {
	rows, jobs := fig8Plan(cfg)
	return Spec{ID: "fig8", Jobs: jobs, Table: func() *Table { return fig8Render(rows) }}
}

// Fig8Table renders Fig. 8.
func Fig8Table(cfg KVSConfig) *Table {
	return RunSpec(cfg.Parallel, Fig8Spec(cfg))
}

// Fig9Row is one latency bar of Fig. 9 (100% GET).
type Fig9Row struct {
	System string
	Dist   string
	Avg    sim.Time
	P99    sim.Time // zero when inapplicable (LD/LH emulation)
}

// fig9Plan enumerates (system x dist) latency points as runner jobs.
// Latency is measured at moderate load so path latency and jitter, not
// closed-loop equilibrium, dominate. The SmartNIC saturates far below
// the others; its latency is measured at a sustainable load (window 1),
// like the paper's per-system latency runs.
func fig9Plan(cfg KVSConfig) ([]Fig9Row, []runner.Job) {
	systems := []struct {
		name        string
		tailApplies bool
		window      int
		mk          func() kvsCaller
	}{
		{"CPU", true, 8, func() kvsCaller { return newCPUKVS(cfg, cfg.Batch, true) }},
		{"SmartNIC", true, 1, func() kvsCaller { return newSNICKVS(cfg) }},
		{"RAMBDA", true, 8, func() kvsCaller { return newRambdaKVS(cfg, core.AccelBase, cfg.Batch) }},
		{"RAMBDA-LD", false, 8, func() kvsCaller { return newRambdaKVS(cfg, core.AccelLD, cfg.Batch) }},
		{"RAMBDA-LH", false, 8, func() kvsCaller { return newRambdaKVS(cfg, core.AccelLH, cfg.Batch) }},
	}
	type point struct {
		sys    int
		dist   string
		skewed bool
	}
	var points []point
	for si := range systems {
		for _, dist := range kvsDists {
			points = append(points, point{si, dist.name, dist.skewed})
		}
	}
	rows := make([]Fig9Row, len(points))
	jobs := runner.Jobs("fig9", len(points),
		func(i int) string { return systems[points[i].sys].name + "/" + points[i].dist },
		func(i int) {
			p := points[i]
			s := systems[p.sys]
			res := cfg.measure(s.mk(), p.skewed, false, s.window)
			row := Fig9Row{System: s.name, Dist: p.dist, Avg: res.Latency.Mean()}
			if s.tailApplies {
				row.P99 = res.Latency.P99()
			}
			rows[i] = row
		})
	return rows, jobs
}

// Fig9 measures average and tail latency under moderate load (100%
// GET, batch 32).
func Fig9(cfg KVSConfig) []Fig9Row {
	rows, jobs := fig9Plan(cfg)
	runner.MustRun(cfg.Parallel, jobs)
	return rows
}

func fig9Render(rows []Fig9Row) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "KVS latency, 100% GET, batch 32",
		Columns: []string{"system", "dist", "avg", "p99"},
		Notes: []string{
			"paper: RAMBDA avg slightly above CPU (UPI hop); LD below; p99: RAMBDA 30.1% under CPU, 52.0% under SmartNIC",
			"LD/LH tail marked n/a exactly as in the paper (average-only emulation)",
		},
	}
	for _, r := range rows {
		p99 := "n/a"
		if r.P99 != 0 {
			p99 = r.P99.String()
		}
		t.AddRow(r.System, r.Dist, r.Avg.String(), p99)
	}
	return t
}

// Fig9Spec exposes the sweep for a shared pool.
func Fig9Spec(cfg KVSConfig) Spec {
	rows, jobs := fig9Plan(cfg)
	return Spec{ID: "fig9", Jobs: jobs, Table: func() *Table { return fig9Render(rows) }}
}

// Fig9Table renders Fig. 9.
func Fig9Table(cfg KVSConfig) *Table {
	return RunSpec(cfg.Parallel, Fig9Spec(cfg))
}

// Fig10Row is one point of the batch sweep.
type Fig10Row struct {
	System     string
	Batch      int
	Throughput float64
	Avg        sim.Time
}

// fig10Plan enumerates the batch sweep as runner jobs. CPU and SmartNIC
// clients pipeline `batch` requests per connection (the batch is their
// window); RAMBDA needs no request batching — its batch knob only
// amortizes response doorbells, and the client window stays at the ring
// depth (paper Sec. VI-B).
func fig10Plan(cfg KVSConfig) ([]Fig10Row, []runner.Job) {
	batches := []int{1, 2, 4, 8, 16, 32}
	systems := []struct {
		name string
		mk   func(batch int) kvsCaller
		win  func(batch int) int
	}{
		{"CPU", func(b int) kvsCaller { return newCPUKVS(cfg, b, false) }, func(b int) int { return b }},
		{"SmartNIC", func(int) kvsCaller { return newSNICKVS(cfg) }, func(b int) int { return b }},
		{"RAMBDA", func(b int) kvsCaller { return newRambdaKVS(cfg, core.AccelBase, b) }, func(int) int { return cfg.Batch }},
	}
	type point struct {
		sys   int
		batch int
	}
	var points []point
	for si := range systems {
		for _, b := range batches {
			points = append(points, point{si, b})
		}
	}
	rows := make([]Fig10Row, len(points))
	jobs := runner.Jobs("fig10", len(points),
		func(i int) string { return fmt.Sprintf("%s/batch=%d", systems[points[i].sys].name, points[i].batch) },
		func(i int) {
			p := points[i]
			s := systems[p.sys]
			res := cfg.measure(s.mk(p.batch), true, false, s.win(p.batch))
			rows[i] = Fig10Row{System: s.name, Batch: p.batch, Throughput: res.Throughput, Avg: res.Latency.Mean()}
		})
	return rows, jobs
}

// Fig10 sweeps the batch size on the Zipf GET workload. The client
// window equals the batch size (HERD clients post batches of B).
func Fig10(cfg KVSConfig) []Fig10Row {
	rows, jobs := fig10Plan(cfg)
	runner.MustRun(cfg.Parallel, jobs)
	return rows
}

func fig10Render(rows []Fig10Row) *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Batch size impact (100% GET, Zipf)",
		Columns: []string{"system", "batch", "throughput", "avg latency"},
		Notes: []string{
			"paper: batching lifts CPU/SmartNIC ~12x and RAMBDA ~2x; RAMBDA latency grows sub-linearly",
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, fmt.Sprintf("%d", r.Batch), mops(r.Throughput), r.Avg.String())
	}
	return t
}

// Fig10Spec exposes the sweep for a shared pool.
func Fig10Spec(cfg KVSConfig) Spec {
	rows, jobs := fig10Plan(cfg)
	return Spec{ID: "fig10", Jobs: jobs, Table: func() *Table { return fig10Render(rows) }}
}

// Fig10Table renders Fig. 10.
func Fig10Table(cfg KVSConfig) *Table {
	return RunSpec(cfg.Parallel, Fig10Spec(cfg))
}

// Tab3Row is one column of Tab. III.
type Tab3Row struct {
	System  string
	Watts   float64
	KopPerW float64
}

// tab3Plan enumerates the three power-efficiency measurements at the
// Fig. 8 uniform-GET operating point.
func tab3Plan(cfg KVSConfig) ([]Tab3Row, []runner.Job) {
	systems := []struct {
		name  string
		watts float64
		mk    func() kvsCaller
	}{
		{"CPU", power.CPUFullLoad, func() kvsCaller { return newCPUKVS(cfg, cfg.Batch, false) }},
		{"SmartNIC", power.SmartNICARMs, func() kvsCaller { return newSNICKVS(cfg) }},
		{"RAMBDA", power.RambdaFPGA, func() kvsCaller { return newRambdaKVS(cfg, core.AccelBase, cfg.Batch) }},
	}
	rows := make([]Tab3Row, len(systems))
	jobs := runner.Jobs("tab3", len(systems),
		func(i int) string { return systems[i].name },
		func(i int) {
			s := systems[i]
			tput := cfg.measure(s.mk(), false, false, cfg.Batch).Throughput
			rows[i] = Tab3Row{System: s.name, Watts: s.watts, KopPerW: power.KopsPerWatt(tput, s.watts)}
		})
	return rows, jobs
}

// Tab3 computes power efficiency at the Fig. 8 uniform-GET operating
// point using the paper's measured component wattages.
func Tab3(cfg KVSConfig) []Tab3Row {
	rows, jobs := tab3Plan(cfg)
	runner.MustRun(cfg.Parallel, jobs)
	return rows
}

func tab3Render(rows []Tab3Row) *Table {
	t := &Table{
		ID:      "tab3",
		Title:   "Power efficiency, GET/uniform (Kop/W)",
		Columns: []string{"system", "watts", "Kop/W"},
		Notes: []string{
			"paper: CPU 130.4, SmartNIC 25.2, RAMBDA 188.7 Kop/W; box-level power -38% with RAMBDA",
			fmt.Sprintf("whole-box reduction (IPMI constants): %.0f%%", power.BoxReduction()*100),
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, f1(r.Watts), f1(r.KopPerW))
	}
	return t
}

// Tab3Spec exposes the sweep for a shared pool.
func Tab3Spec(cfg KVSConfig) Spec {
	rows, jobs := tab3Plan(cfg)
	return Spec{ID: "tab3", Jobs: jobs, Table: func() *Table { return tab3Render(rows) }}
}

// Tab3Table renders Tab. III.
func Tab3Table(cfg KVSConfig) *Table {
	return RunSpec(cfg.Parallel, Tab3Spec(cfg))
}
