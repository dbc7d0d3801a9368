package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/core"
	"rambda/internal/kvs"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// BreakdownConfig sizes the per-stage latency-breakdown experiment: it
// re-runs the fig7 microbenchmark path and the fig8 KVS path with the
// observability collector attached and reports where each request's
// virtual time goes (NIC / wire / ring / notify / compute / memory).
type BreakdownConfig struct {
	Requests int
	Seed     uint64
	Parallel int // sweep-point workers; 0 = runner default

	// TraceOut and MetricsOut, when non-empty, export the collected
	// spans as Chrome trace_event JSON and the metrics registry as JSON
	// after the jobs have run. Same seed, same files, byte for byte.
	TraceOut   string
	MetricsOut string
}

// DefaultBreakdownConfig returns the standalone experiment size.
func DefaultBreakdownConfig() BreakdownConfig {
	return BreakdownConfig{Requests: 8000, Seed: 21}
}

// breakdownMetricsInterval is the virtual-time ticker period for
// registry samples.
const breakdownMetricsInterval = 50 * sim.Microsecond

// breakdownMicrobench drives the fig7 RAMBDA-cpoll configuration (the
// intra-machine list walk) serially with the collector attached.
func breakdownMicrobench(cfg BreakdownConfig, tr *obs.Trace, reg *obs.Registry) {
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase})
	rng := sim.NewRNG(cfg.Seed)
	const nodes = 1 << 18
	list := buildLinkedList(m.Space, memspace.KindDRAM, nodes, rng)

	opts := core.DefaultServerOptions()
	opts.Connections = 16
	opts.RingEntries = 32
	opts.EntryBytes = 64
	opts.Trace = tr
	opts.Metrics = reg
	s := core.NewServer(m, walkerApp(list), opts)
	clients := make([]*core.LocalClient, opts.Connections)
	for i := range clients {
		clients[i] = core.ConnectLocalClient(s, i)
	}
	reg.SetInterval(breakdownMetricsInterval)

	wrng := sim.NewRNG(cfg.Seed + 2)
	req := make([]byte, 8)
	now := sim.Time(0)
	for i := 0; i < cfg.Requests; i++ {
		binary.LittleEndian.PutUint64(req, uint64(wrng.Intn(nodes)))
		_, done := clients[i%opts.Connections].Call(now, req)
		now = done
	}
	reg.SnapshotNow(now)
}

// breakdownKVS drives the fig8 RAMBDA KVS (remote clients over RDMA)
// serially with the collector attached, GET-only uniform keys.
func breakdownKVS(cfg BreakdownConfig, tr *obs.Trace, reg *obs.Registry) {
	k := DefaultKVSConfig()
	k.Keys = 1 << 18
	k.Requests = cfg.Requests
	k.Seed = cfg.Seed
	r := newKVSServer(kvsServeOpts{
		Variant:       core.AccelBase,
		Connections:   k.Connections,
		RingEntries:   k.Batch * 4,
		EntryBytes:    128,
		ResponseBatch: 1,
		Trace:         tr,
		Metrics:       reg,
	}, func(m *core.Machine) kvs.Backend {
		store := preloadStore(m.Space, m.DataKind(), k)
		store.RegisterMetrics(reg, "kvs")
		return store
	})
	reg.SetInterval(breakdownMetricsInterval)

	gen := kvsGen(k, false, false)
	var wk kvsWork
	now := sim.Time(0)
	for i := 0; i < cfg.Requests; i++ {
		gen(&wk)
		_, done := r.callOn(i, now, wk.request())
		now = done
	}
	reg.SnapshotNow(now)
}

// breakdownPaths enumerates the instrumented request paths.
var breakdownPaths = []struct {
	name string
	run  func(BreakdownConfig, *obs.Trace, *obs.Registry)
}{
	{"fig7/RAMBDA", breakdownMicrobench},
	{"fig8/RAMBDA", breakdownKVS},
}

func breakdownRender(cfg BreakdownConfig, traces []*obs.Trace, regs []*obs.Registry) *Table {
	t := &Table{
		ID:      "breakdown",
		Title:   "Per-stage latency breakdown (virtual-time self time, collector attached)",
		Columns: []string{"path", "stage", "spans", "self", "share"},
		Notes: []string{
			"self time = span duration minus nested spans; other = envelope slack (client think/queueing)",
		},
	}
	for i, p := range breakdownPaths {
		for _, r := range obs.BreakdownRows(traces[i]) {
			t.AddRow(p.name, r.Stage.String(), fmt.Sprintf("%d", r.Count),
				r.Self.String(), fmt.Sprintf("%.1f%%", r.Share*100))
		}
	}
	if cfg.TraceOut != "" {
		tj := make([]obs.TraceJSON, len(breakdownPaths))
		for i, p := range breakdownPaths {
			tj[i] = obs.TraceJSON{Name: p.name, Trace: traces[i], PID: i + 1}
		}
		if err := obs.WriteChromeTraceFile(cfg.TraceOut, tj); err != nil {
			panic(fmt.Sprintf("breakdown: write trace: %v", err))
		}
		// Constant note (no path): the rendered table must stay
		// byte-identical across runs that export to different files.
		t.Notes = append(t.Notes, "chrome trace exported (-trace-out)")
	}
	if cfg.MetricsOut != "" {
		mj := make([]obs.MetricsJSON, len(breakdownPaths))
		for i, p := range breakdownPaths {
			mj[i] = obs.MetricsJSON{Name: p.name, Registry: regs[i]}
		}
		if err := obs.WriteMetricsFile(cfg.MetricsOut, mj); err != nil {
			panic(fmt.Sprintf("breakdown: write metrics: %v", err))
		}
		t.Notes = append(t.Notes, "metrics exported (-metrics-out)")
	}
	return t
}

// breakdownPlan enumerates the paths as runner jobs, each with its own
// slot-indexed collector.
func breakdownPlan(cfg BreakdownConfig) (func() *Table, []runner.Job) {
	traces := make([]*obs.Trace, len(breakdownPaths))
	regs := make([]*obs.Registry, len(breakdownPaths))
	jobs := runner.Jobs("breakdown", len(breakdownPaths),
		func(i int) string { return breakdownPaths[i].name },
		func(i int) {
			traces[i] = obs.NewTrace()
			regs[i] = obs.NewRegistry()
			breakdownPaths[i].run(cfg, traces[i], regs[i])
		})
	return func() *Table { return breakdownRender(cfg, traces, regs) }, jobs
}

// BreakdownSpec exposes the experiment for a shared pool.
func BreakdownSpec(cfg BreakdownConfig) Spec {
	table, jobs := breakdownPlan(cfg)
	return Spec{ID: "breakdown", Jobs: jobs, Table: table}
}

// Breakdown runs the experiment and renders its table.
func Breakdown(cfg BreakdownConfig) *Table {
	return RunSpec(cfg.Parallel, BreakdownSpec(cfg))
}
