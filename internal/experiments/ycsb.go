package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/core"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/obs"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// The ycsb experiment is not a paper figure: it opens the scan-heavy
// and mixed-workload scenario family the paper never measured against
// its µs-scale latency bar. YCSB-style mixes A (50/50 read/update), B
// (95/5), C (read-only), and E (95% range scans / 5% inserts) drive the
// RAMBDA serving path over both storage backends behind the kvs.Backend
// API — the MICA-style hash index and the tiered DRAM-memtable →
// NVM-sstable LSM tree — reporting goodput, p50/p99, and the LSM's
// flush/compaction/stall counters so compaction pressure is visible
// next to the latency it causes.

// YCSBConfig sizes the workload-mix × backend sweep.
type YCSBConfig struct {
	// Keys is the preloaded key universe; ValueBytes the payload per
	// pair; ScanLen the pair budget of one OpScan.
	Keys       int
	ValueBytes int
	ScanLen    int

	Connections int
	Batch       int
	Requests    int
	ZipfTheta   float64
	Seed        uint64
	Parallel    int // sweep-point workers; 0 = runner default

	// MetricsOut, when non-empty, exports every point's backend metrics
	// registry (memtable/run gauges, flush/compaction/stall counters,
	// hash hit rates) as one JSON file after the jobs have run. Same
	// seed, same file, byte for byte.
	MetricsOut string
}

// DefaultYCSBConfig returns the full-size sweep.
func DefaultYCSBConfig() YCSBConfig {
	return YCSBConfig{
		Keys:        1 << 16,
		ValueBytes:  46,
		ScanLen:     16,
		Connections: 10,
		Batch:       32,
		Requests:    24000,
		ZipfTheta:   0.99,
		Seed:        31,
	}
}

// ycsbWindow is the per-connection pipeline depth: moderate load, so
// path latency and compaction interference, not closed-loop
// equilibrium, dominate the tail.
const ycsbWindow = 8

// ycsbMix is one workload row: percentages must sum to 100.
type ycsbMix struct {
	name    string
	readPct int
	upPct   int
	scanPct int // remainder after scans is inserts (workload E)
}

// ycsbMixes enumerates the YCSB-style rows in table order.
var ycsbMixes = []ycsbMix{
	{"A", 50, 50, 0},
	{"B", 95, 5, 0},
	{"C", 100, 0, 0},
	{"E", 0, 0, 95},
}

// ycsbBackends enumerates the storage engines in table order.
var ycsbBackends = []string{"hash", "lsm"}

// ycsbLSMConfig sizes the tree so the sweep exercises real flush and
// compaction cascades within a run: the WAL is slightly smaller than
// the memtable, so sustained updates wrap it and force synchronous
// (stalling) flushes — the write-stall pressure the E/A rows exist to
// measure — and L0 bounds at 2 runs so compactions cascade.
func ycsbLSMConfig() lsm.Config {
	return lsm.Config{
		MemtableBytes: 64 << 10,
		L0Runs:        2,
		SSTableBytes:  2 << 20,
		WALBytes:      48 << 10,
		MaxLevels:     4,
	}
}

// ycsbGen returns the mix's request generator. Workload E's inserts
// grow the keyspace past the preloaded keys.
func ycsbGen(cfg YCSBConfig, mix ycsbMix, seed uint64) func(*kvsWork) {
	rng := sim.NewRNG(runner.SubSeed(seed, 1))
	zipf := sim.NewZipf(rng, uint64(cfg.Keys), cfg.ZipfTheta)
	insertNext := cfg.Keys
	valBase := make([]byte, cfg.ValueBytes)
	put := func(wk *kvsWork, k int) {
		wk.op = kvs.OpPut
		wk.key = appendKVSKey(wk.key[:0], k)
		binary.LittleEndian.PutUint64(valBase, uint64(k))
		wk.val = append(wk.val[:0], valBase...)
	}
	return func(wk *kvsWork) {
		p := rng.Intn(100)
		switch {
		case p < mix.readPct:
			wk.op = kvs.OpGet
			wk.key = appendKVSKey(wk.key[:0], int(zipf.Next()))
		case p < mix.readPct+mix.upPct:
			put(wk, int(zipf.Next()))
		case p < mix.readPct+mix.upPct+mix.scanPct:
			wk.op = kvs.OpScan
			wk.key = appendKVSKey(wk.key[:0], int(zipf.Next()))
			wk.limit = cfg.ScanLen
			wk.reverse = rng.Intn(4) == 0
		default:
			put(wk, insertNext)
			insertNext++
		}
	}
}

// YCSBRow is one (workload, backend) point.
type YCSBRow struct {
	Workload string
	Backend  string
	Goodput  float64
	P50, P99 sim.Time
	// LSM health over the measured run (preload excluded; zero for
	// hash).
	Flushes, Compactions, Stalls int64
}

// ycsbPoint runs one sweep point on a fresh system: the RAMBDA machine
// pair with the chosen backend behind the wire protocol.
func ycsbPoint(cfg YCSBConfig, mix ycsbMix, backend string, point int, reg *obs.Registry) YCSBRow {
	seed := runner.Seed("ycsb", point)
	var db *lsm.DB
	// base is the LSM's counter state right after preload, so rows
	// report run-only flush/compaction/stall deltas.
	var base lsm.Stats
	srv := newKVSServer(kvsServeOpts{
		Variant:     core.AccelBase,
		WithNVM:     true,
		Connections: cfg.Connections,
		RingEntries: cfg.Batch * 4,
		// Scan responses carry up to ScanLen pairs; size ring entries
		// for the largest frame.
		EntryBytes:    128 + cfg.ScanLen*(6+18+cfg.ValueBytes),
		ResponseBatch: cfg.Batch,
	}, func(m *core.Machine) kvs.Backend {
		switch backend {
		case "hash":
			// Pool sized for the preload plus workload-E inserts.
			store := hashStore(m.Space, m.DataKind(), cfg.Keys, cfg.Keys+cfg.Requests)
			preload(store, cfg.Keys, cfg.ValueBytes)
			if reg != nil {
				store.RegisterMetrics(reg, "ycsb.hash")
			}
			return store
		case "lsm":
			db = lsm.Open(m.Space, m.Mem, ycsbLSMConfig())
			preload(db, cfg.Keys, cfg.ValueBytes)
			db.Maintain(0) // preload flushes are free; measurement starts clean
			base = db.Stats()
			if reg != nil {
				db.RegisterMetrics(reg, "ycsb.lsm")
			}
			return db
		}
		panic("ycsb: unknown backend " + backend)
	})
	res := measureKVS(srv, cfg.Connections*ycsbWindow, cfg.Requests, seed, ycsbGen(cfg, mix, seed))
	row := YCSBRow{
		Workload: mix.name,
		Backend:  backend,
		Goodput:  res.Throughput,
		P50:      res.Latency.P50(),
		P99:      res.Latency.P99(),
	}
	if db != nil {
		st := db.Stats()
		row.Flushes = st.Flushes - base.Flushes
		row.Compactions = st.Compactions - base.Compactions
		row.Stalls = st.Stalls - base.Stalls
	}
	if reg != nil {
		reg.SnapshotNow(res.End)
	}
	return row
}

// ycsbPlan enumerates (mix × backend) as runner jobs. Registries are
// slot-indexed like the rows, so the export is identical for every
// worker count.
func ycsbPlan(cfg YCSBConfig) (func() *Table, []runner.Job) {
	type point struct {
		mix     ycsbMix
		backend string
	}
	var points []point
	for _, m := range ycsbMixes {
		for _, b := range ycsbBackends {
			points = append(points, point{m, b})
		}
	}
	rows := make([]YCSBRow, len(points))
	var regs []*obs.Registry
	if cfg.MetricsOut != "" {
		regs = make([]*obs.Registry, len(points))
	}
	jobs := runner.Jobs("ycsb", len(points),
		func(i int) string { return points[i].mix.name + "/" + points[i].backend },
		func(i int) {
			var reg *obs.Registry
			if regs != nil {
				regs[i] = obs.NewRegistry()
				reg = regs[i]
			}
			rows[i] = ycsbPoint(cfg, points[i].mix, points[i].backend, i, reg)
		})
	return func() *Table { return ycsbRender(cfg, rows, regs) }, jobs
}

func ycsbRender(cfg YCSBConfig, rows []YCSBRow, regs []*obs.Registry) *Table {
	t := &Table{
		ID:    "ycsb",
		Title: "YCSB-style mixes x storage backend (hash vs tiered LSM)",
		Columns: []string{"workload", "backend", "goodput", "p50", "p99",
			"flushes", "compactions", "stalls"},
		Notes: []string{
			"A=50/50 read/update, B=95/5, C=read-only, E=95% scans (limit 16) / 5% inserts",
			"lsm: flush+compaction charged to NVM write bandwidth after each request; stalls = WAL-wrap write stalls",
			"hash scans are bucket-order cursors (no key order); lsm scans are key-ordered merged iterators",
		},
	}
	na := func(backend string, v int64) string {
		if backend == "hash" {
			return "n/a"
		}
		return fmt.Sprintf("%d", v)
	}
	for _, r := range rows {
		t.AddRow(
			r.Workload, r.Backend,
			fmt.Sprintf("%.1f Kops", r.Goodput/1e3),
			usStr(r.P50), usStr(r.P99),
			na(r.Backend, r.Flushes), na(r.Backend, r.Compactions), na(r.Backend, r.Stalls),
		)
	}
	if cfg.MetricsOut != "" {
		mj := make([]obs.MetricsJSON, len(regs))
		for i, reg := range regs {
			mj[i] = obs.MetricsJSON{Name: rows[i].Workload + "/" + rows[i].Backend, Registry: reg}
		}
		if err := obs.WriteMetricsFile(cfg.MetricsOut, mj); err != nil {
			panic(fmt.Sprintf("ycsb: write metrics: %v", err))
		}
		// Constant note (no path): the rendered table must stay
		// byte-identical across runs that export to different files.
		t.Notes = append(t.Notes, "metrics exported (-ycsb-metrics-out)")
	}
	return t
}

// YCSBSpec exposes the sweep for a shared pool.
func YCSBSpec(cfg YCSBConfig) Spec {
	table, jobs := ycsbPlan(cfg)
	return Spec{ID: "ycsb", Jobs: jobs, Table: table}
}

// YCSBTable runs the whole sweep and renders it.
func YCSBTable(cfg YCSBConfig) *Table {
	return RunSpec(cfg.Parallel, YCSBSpec(cfg))
}
