package experiments

import (
	"fmt"

	"rambda/internal/core"
	"rambda/internal/dlrm"
	"rambda/internal/hostcpu"
	"rambda/internal/interconnect"
	"rambda/internal/memspace"
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

// dlrmInput is what a category's points share: its dataset at the
// experiment's scale, from which each point draws a query stream of its
// own, and the model built over it.
type dlrmInput struct {
	data  *dlrm.Dataset
	model *dlrm.Model
}

// buildDLRM builds a category's dataset and model, the model in an
// address space of its own. A point maps it into its machine with
// dlrm.Model.AdoptInto as the machine's first allocation, where a model
// built in the machine's space would have been placed.
func buildDLRM(cat dlrm.Category, cfg Fig13Config) dlrmInput {
	cat.Rows = int(float64(cat.Rows) * cfg.RowScale)
	ds := dlrm.NewDataset(cat, cfg.Seed)
	space := memspace.New()
	rng := sim.NewRNG(cfg.Seed + 3)
	table := dlrm.NewTable(space, "emb-"+cat.Name, ds.Cat.Rows, cfg.Dim, memspace.KindDRAM, rng)
	memo := dlrm.BuildMemo(space, "memo-"+cat.Name, table, ds.Bundles, ds.Cat.Rows/4, memspace.KindDRAM, rng)
	mlp := dlrm.NewMLP(cfg.Dim, 32, rng)
	return dlrmInput{data: ds, model: dlrm.NewModel(table, memo, mlp, ds.Bundles)}
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

// fig13Work is one request of the DLRM stream: the query, its on-wire
// size (feature ids; the response is the 8 B CTR score), and the
// inference trace/stats. One value per point is refilled
// in place for every request, so the trace is valid until the next
// fill and the steady state is allocation free.
type fig13Work struct {
	q    dlrm.Query
	sc   dlrm.InferScratch
	st   dlrm.InferStats
	reqB int
}

// next draws the stream's next query and runs its inference through
// the zero-alloc gather path.
func (w *fig13Work) next(ds *dlrm.Dataset, model *dlrm.Model) {
	ds.NextQueryInto(&w.q)
	w.reqB = 8 + 4*w.q.NumItems(ds.Cat.BundleSize)
	_, _, w.st = model.InferInto(w.q, dlrm.AggSum, &w.sc)
}

// apuReduceCyclesPerRow is the APU's pipelined SIMD reduction cost.
const apuReduceCyclesPerRow = 2

// fig13Point is one Fig. 13 bar: a category served by cores CPU cores
// (NoAccel) or by an accelerator variant.
type fig13Point struct {
	cat     dlrm.Category
	cores   int
	variant core.AccelVariant
}

// build maps model into a fresh machine as its data kind and returns
// how many closed-loop clients drive it and its server side of one
// query, from the request's arrival to the response leaving.
func (p fig13Point) build(model *dlrm.Model) (int, func(sim.Time, *fig13Work) sim.Time) {
	m := core.NewMachine(core.MachineConfig{Name: "srv", Cores: p.cores, Variant: p.variant})
	model.AdoptInto(m.Space, m.DataKind())
	if p.variant == core.NoAccel {
		// MERCI reduction on k cores behind the RDMA network front-end.
		return p.cores * 8, func(t sim.Time, w *fig13Work) sim.Time {
			return m.CPU.Process(t, hostcpu.Work{
				Cycles:      cpuDLRMBaseCycles + cpuDLRMPerRowCycles*w.st.ReducedVectors,
				Accesses:    len(w.st.Trace),
				AccessBytes: model.Table.RowBytes(),
				Addr:        model.Table.Range().Base,
				Parallel:    true,
				MLP:         cpuDLRMGatherMLP,
				DRAMFactor:  cpuDLRMDRAMFactor,
			})
		}
	}
	// The accelerator variants. The base prototype suffers the
	// wimpy-controller serial gather over the cc-link
	// (ReadDataBlocking); LD/LH issue 64-wide waves against local memory
	// (ReadDataWave). The CPU handles request preprocessing (Sec. IV-C's
	// CPU-accelerator collaboration) via the intra-machine rings.
	ctx := &core.AppCtx{M: m, A: m.Accel}
	addrs := make([]memspace.Addr, 0, 64)
	return 64, func(t sim.Time, w *fig13Work) sim.Time {
		// Preprocessing runs on one CPU core (the paper observes ~60% of
		// a core keeps up); request and model-ready input cross the
		// intra-machine rings.
		t = ctx.InvokeCPU(t, w.reqB, 500)
		if p.variant == core.AccelBase {
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
		return ctx.Compute(t, apuReduceCyclesPerRow*w.st.ReducedVectors+w.st.FLOPs/64)
	}
}

// simulate drives the point's closed loop, with a query stream of its
// own, over in's model and returns its throughput.
func (p fig13Point) simulate(cfg Fig13Config, in dlrmInput) float64 {
	model := in.model
	clients, serve := p.build(model)
	ds := in.data.Stream(cfg.Seed)
	net := interconnect.NewDuplex("net", core.NetBW, core.NetOneWay)
	perClient := max(cfg.Queries/clients, 1)
	var w fig13Work
	res := sim.ClosedLoop{Clients: clients, PerClient: perClient, Warmup: 1,
		Stagger: 60 * sim.Nanosecond, Jitter: 300 * sim.Nanosecond, JitterSeed: cfg.Seed}.Run(
		func(_ int, issue sim.Time) sim.Time {
			w.next(ds, model)
			t := net.AtoB.Send(issue, w.reqB)
			return net.BtoA.Send(serve(t, &w), 8)
		})
	return res.Throughput
}

// fig13Systems is Fig. 13's system matrix in table order: five CPU core
// counts, then the three accelerator variants.
var fig13Systems = []struct {
	name    string
	cores   int
	variant core.AccelVariant
}{
	{"CPU-1", 1, core.NoAccel}, {"CPU-2", 2, core.NoAccel}, {"CPU-4", 4, core.NoAccel},
	{"CPU-8", 8, core.NoAccel}, {"CPU-16", 16, core.NoAccel},
	{"RAMBDA", 0, core.AccelBase}, {"RAMBDA-LD", 0, core.AccelLD}, {"RAMBDA-LH", 0, core.AccelLH},
}

// fig13Plan enumerates (dataset x system): six Amazon categories by
// eight systems. A category's eight points share one model, built on
// the first ask and let go after the eighth.
func fig13Plan(cfg Fig13Config) ([]Fig13Row, sweep[fig13Point, float64]) {
	models := newSharedInputs("DLRM model", func(cat dlrm.Category) dlrmInput { return buildDLRM(cat, cfg) })
	var rows []Fig13Row
	sw := sweep[fig13Point, float64]{table: Table{
		ID:      "fig13",
		Title:   "MERCI-based DLRM inference throughput (Amazon Review-like datasets)",
		Columns: []string{"dataset", "system", "throughput"},
		Notes: []string{
			"paper: CPU scales to 8 cores (membw-bound); RAMBDA 19.7-31.3% of CPU-1;",
			"LD 52.8-95.3% of CPU-8; LH 1.6-3.1x CPU-8 (network becomes the limit)",
		},
	}}
	for _, cat := range dlrm.AmazonCategories {
		for _, sys := range fig13Systems {
			rows = append(rows, Fig13Row{Dataset: cat.Name, System: sys.name})
			sw.points = append(sw.points, fig13Point{cat: cat, cores: sys.cores, variant: sys.variant})
			models.plan(cat)
		}
	}
	sw.measure = func(p fig13Point) float64 { return p.simulate(cfg, models.ask(p.cat)) }
	sw.label = func(i int) string { return rows[i].Dataset + "/" + rows[i].System }
	sw.fill = func(i int, tput float64) { rows[i].Throughput = tput }
	sw.cells = func(i int) []string {
		return []string{rows[i].Dataset, rows[i].System, fmt.Sprintf("%.2f Mq/s", rows[i].Throughput/1e6)}
	}
	return rows, sw
}

// Fig13 measures every (dataset, system) bar.
func Fig13(cfg Fig13Config) []Fig13Row { return runAlone(fig13Plan(cfg)) }

// Fig13Spec exposes the sweep for a shared pool.
func Fig13Spec(cfg Fig13Config) Spec {
	_, sw := fig13Plan(cfg)
	return sw.spec()
}
