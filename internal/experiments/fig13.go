package experiments

import (
	"fmt"

	"rambda/internal/core"
	"rambda/internal/dlrm"
	"rambda/internal/hostcpu"
	"rambda/internal/interconnect"
	"rambda/internal/memspace"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// Fig13Row is one bar of Fig. 13: MERCI-based DLRM inference throughput
// for one (dataset, system).
type Fig13Row struct {
	Dataset    string
	System     string
	Throughput float64 // queries/sec
}

// Fig13Config scales the DLRM experiment.
type Fig13Config struct {
	Queries  int
	Dim      int
	RowScale float64 // scales the per-category table heights
	Seed     uint64
}

// DefaultFig13Config mirrors the paper's configuration at simulation
// scale (embedding dimension 64, memo budget 0.25x).
func DefaultFig13Config() Fig13Config {
	return Fig13Config{Queries: 20000, Dim: 64, RowScale: 0.25, Seed: 13}
}

// dlrmWire is the on-wire size of a query (feature ids) and its
// response (the CTR score).
func dlrmWire(q dlrm.Query, bundleSize int) (req, resp int) {
	return 8 + 4*q.NumItems(bundleSize), 8
}

// buildDLRM materializes a category's model in the given space/kind.
func buildDLRM(cat dlrm.Category, cfg Fig13Config, space *memspace.Space, kind memspace.Kind) (*dlrm.Model, *dlrm.Dataset) {
	cat.Rows = int(float64(cat.Rows) * cfg.RowScale)
	ds := dlrm.NewDataset(cat, cfg.Seed)
	rng := sim.NewRNG(cfg.Seed + 3)
	table := dlrm.NewTable(space, "emb-"+cat.Name, cat.Rows, cfg.Dim, kind, rng)
	memo := dlrm.BuildMemo(space, "memo-"+cat.Name, table, ds.Bundles, cat.Rows/4, kind, rng)
	mlp := dlrm.NewMLP(cfg.Dim, 32, rng)
	return dlrm.NewModel(table, memo, mlp, ds.Bundles), ds
}

// Per-query CPU instruction path: request preprocessing + reduction
// bookkeeping + MLP, per reduced vector and per query. Calibrated to
// MERCI's single-core throughput scaled to the testbed clock.
const (
	cpuDLRMBaseCycles   = 700
	cpuDLRMPerRowCycles = 45
	cpuDLRMGatherMLP    = 8
	// cpuDLRMDRAMFactor reflects the activation-bandwidth waste of
	// random 256 B row gathers: the effective host bandwidth is ~40% of
	// peak, which is what caps MERCI at eight cores (Sec. VI-D).
	cpuDLRMDRAMFactor = 3.2
)

// fig13Work is one request of the DLRM stream: the query, its wire
// sizes, and the inference trace/stats. One value per point is refilled
// in place for every request, so the trace is valid until the next
// fill and the steady state is allocation free.
type fig13Work struct {
	q     dlrm.Query
	sc    dlrm.InferScratch
	st    dlrm.InferStats
	reqB  int
	respB int
}

// next draws the stream's next query and runs its inference through
// the zero-alloc gather path.
func (w *fig13Work) next(ds *dlrm.Dataset, model *dlrm.Model) {
	ds.NextQueryInto(&w.q)
	w.reqB, w.respB = dlrmWire(w.q, ds.Cat.BundleSize)
	_, _, w.st = model.InferInto(w.q, dlrm.AggSum, &w.sc)
}

// fig13CPU measures MERCI reduction on k cores behind the RDMA network
// front-end.
func fig13CPU(cat dlrm.Category, cfg Fig13Config, cores int) float64 {
	m := core.NewMachine(core.MachineConfig{Name: "srv", Cores: cores})
	model, ds := buildDLRM(cat, cfg, m.Space, memspace.KindDRAM)
	net := interconnect.NewDuplex("net", core.NetBW, core.NetOneWay)

	clients := cores * 8
	perClient := cfg.Queries / clients
	if perClient < 1 {
		perClient = 1
	}
	var w fig13Work
	res := sim.ClosedLoop{Clients: clients, PerClient: perClient, Warmup: 1,
		Stagger: 60 * sim.Nanosecond, Jitter: 300 * sim.Nanosecond, JitterSeed: cfg.Seed}.Run(
		func(_ int, issue sim.Time) sim.Time {
			w.next(ds, model)
			t := net.AtoB.Send(issue, w.reqB)
			t = m.CPU.Process(t, hostcpu.Work{
				Cycles:      cpuDLRMBaseCycles + cpuDLRMPerRowCycles*w.st.ReducedVectors,
				Accesses:    len(w.st.Trace),
				AccessBytes: model.Table.RowBytes(),
				Addr:        model.Table.Range().Base,
				Parallel:    true,
				MLP:         cpuDLRMGatherMLP,
				DRAMFactor:  cpuDLRMDRAMFactor,
			})
			return net.BtoA.Send(t, w.respB)
		})
	return res.Throughput
}

// apuReduceCyclesPerRow is the APU's pipelined SIMD reduction cost.
const apuReduceCyclesPerRow = 2

// fig13Rambda measures the accelerator variants. The base prototype
// suffers the wimpy-controller serial gather over the cc-link
// (ReadDataBlocking); LD/LH issue 64-wide waves against local memory
// (ReadDataWave). The CPU handles request preprocessing (Sec. IV-C's
// CPU-accelerator collaboration) via the intra-machine rings.
func fig13Rambda(cat dlrm.Category, cfg Fig13Config, variant core.AccelVariant) float64 {
	kind := memspace.KindDRAM
	if variant != core.AccelBase {
		kind = memspace.KindAccelLocal
	}
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: variant})
	model, ds := buildDLRM(cat, cfg, m.Space, kind)
	net := interconnect.NewDuplex("net", core.NetBW, core.NetOneWay)
	ctx := &core.AppCtx{M: m, A: m.Accel}

	clients := 64
	perClient := cfg.Queries / clients
	if perClient < 1 {
		perClient = 1
	}
	var w fig13Work
	addrs := make([]memspace.Addr, 0, 64)
	res := sim.ClosedLoop{Clients: clients, PerClient: perClient, Warmup: 1,
		Stagger: 60 * sim.Nanosecond, Jitter: 300 * sim.Nanosecond, JitterSeed: cfg.Seed}.Run(
		func(_ int, issue sim.Time) sim.Time {
			w.next(ds, model)
			t := net.AtoB.Send(issue, w.reqB)
			// Preprocessing runs on one CPU core (the paper observes
			// ~60% of a core keeps up); request and model-ready input
			// cross the intra-machine rings.
			t = ctx.InvokeCPU(t, w.reqB, 500)

			if variant == core.AccelBase {
				// Dense gather over the cc-link: serial issue.
				for _, a := range w.st.Trace {
					t = m.Accel.ReadDataBlocking(t, a.Addr, a.Bytes)
				}
			} else {
				// 64-wide issue against accelerator-local memory.
				for i := 0; i < len(w.st.Trace); i += 64 {
					addrs = addrs[:0]
					for j := i; j < len(w.st.Trace) && j < i+64; j++ {
						addrs = append(addrs, w.st.Trace[j].Addr)
					}
					t = m.Accel.ReadDataWave(t, addrs, model.Table.RowBytes())
				}
			}
			t = ctx.Compute(t, apuReduceCyclesPerRow*w.st.ReducedVectors+w.st.FLOPs/64)
			return net.BtoA.Send(t, w.respB)
		})
	return res.Throughput
}

// fig13Plan enumerates (dataset x system) as runner jobs — six Amazon
// categories by five CPU core counts plus three accelerator variants,
// each building its own machine, embedding tables, and dataset.
func fig13Plan(cfg Fig13Config) ([]Fig13Row, []runner.Job) {
	variantName := map[core.AccelVariant]string{
		core.AccelBase: "RAMBDA", core.AccelLD: "RAMBDA-LD", core.AccelLH: "RAMBDA-LH",
	}
	type point struct {
		cat    dlrm.Category
		system string
		fn     func() float64
	}
	var points []point
	for _, cat := range dlrm.AmazonCategories {
		cat := cat
		for _, cores := range []int{1, 2, 4, 8, 16} {
			cores := cores
			points = append(points, point{
				cat: cat, system: fmt.Sprintf("CPU-%d", cores),
				fn: func() float64 { return fig13CPU(cat, cfg, cores) },
			})
		}
		for _, v := range []core.AccelVariant{core.AccelBase, core.AccelLD, core.AccelLH} {
			v := v
			points = append(points, point{
				cat: cat, system: variantName[v],
				fn: func() float64 { return fig13Rambda(cat, cfg, v) },
			})
		}
	}
	rows := make([]Fig13Row, len(points))
	jobs := runner.Jobs("fig13", len(points),
		func(i int) string { return points[i].cat.Name + "/" + points[i].system },
		func(i int) {
			p := points[i]
			rows[i] = Fig13Row{Dataset: p.cat.Name, System: p.system, Throughput: p.fn()}
		})
	return rows, jobs
}

func fig13Render(rows []Fig13Row) *Table {
	t := &Table{
		ID:      "fig13",
		Title:   "MERCI-based DLRM inference throughput (Amazon Review-like datasets)",
		Columns: []string{"dataset", "system", "throughput"},
		Notes: []string{
			"paper: CPU scales to 8 cores (membw-bound); RAMBDA 19.7-31.3% of CPU-1;",
			"LD 52.8-95.3% of CPU-8; LH 1.6-3.1x CPU-8 (network becomes the limit)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, r.System, fmt.Sprintf("%.2f Mq/s", r.Throughput/1e6))
	}
	return t
}

// Fig13Spec exposes the sweep for a shared pool.
func Fig13Spec(cfg Fig13Config) Spec {
	rows, jobs := fig13Plan(cfg)
	return Spec{ID: "fig13", Jobs: jobs, Table: func() *Table { return fig13Render(rows) }}
}

// Fig13CPUOne and Fig13RambdaOne expose single-configuration runs for
// the benchmark harness.
func Fig13CPUOne(cat dlrm.Category, cfg Fig13Config, cores int) float64 {
	return fig13CPU(cat, cfg, cores)
}

// Fig13RambdaOne measures one accelerator variant.
func Fig13RambdaOne(cat dlrm.Category, cfg Fig13Config, v core.AccelVariant) float64 {
	return fig13Rambda(cat, cfg, v)
}
