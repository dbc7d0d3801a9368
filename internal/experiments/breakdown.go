package experiments

import (
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
	const nodes = 1 << 18
	list := buildLinkedList(nodes, sim.NewRNG(cfg.Seed))
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase})
	m.Space.Adopt(list.region, memspace.KindDRAM)
	opts := core.DefaultServerOptions()
	opts.RingEntries = 32
	opts.Trace = tr
	opts.Metrics = reg
	walk := walkServer(m, list, opts)
	reg.SetInterval(breakdownMetricsInterval)

	wrng := sim.NewRNG(cfg.Seed + 2)
	now := sim.Time(0)
	for i := 0; i < cfg.Requests; i++ {
		now = walk(i, now, wrng.Intn(nodes))
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
		store := preloadStore(k.storeShape())
		store.AdoptInto(m.Space, m.DataKind())
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

func breakdownRender(traces []*obs.Trace) *Table {
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
	return t
}

// BreakdownSpec enumerates the paths as runner jobs, each with its own
// slot-indexed collector; Obs exports every path's spans and registry.
func BreakdownSpec(cfg BreakdownConfig) Spec {
	traces := make([]*obs.Trace, len(breakdownPaths))
	regs := make([]*obs.Registry, len(breakdownPaths))
	label := func(i int) string { return breakdownPaths[i].name }
	jobs := runner.Jobs("breakdown", len(breakdownPaths), label,
		func(i int) {
			traces[i] = obs.NewTrace()
			regs[i] = obs.NewRegistry()
			breakdownPaths[i].run(cfg, traces[i], regs[i])
			regs[i].Freeze() // keep the values, not the machines, until export
		})
	return Spec{
		ID:    "breakdown",
		Jobs:  jobs,
		Table: func() *Table { return breakdownRender(traces) },
		Obs: func() ([]obs.TraceJSON, []obs.MetricsJSON) {
			tj := make([]obs.TraceJSON, len(traces))
			for i, tr := range traces {
				tj[i] = obs.TraceJSON{Name: label(i), Trace: tr, PID: i + 1}
			}
			return tj, namedMetrics(label, regs)
		},
	}
}
