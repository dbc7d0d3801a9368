// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. VI), plus ablations for the design choices called
// out in DESIGN.md. Each benchmark runs the corresponding experiment at
// a reduced scale and reports the simulated headline metric via
// b.ReportMetric, so `go test -bench=. -benchmem` prints the whole
// reproduction in one sweep. Full-scale runs: cmd/rambda-figures.
package rambda_test

import (
	"flag"
	"os"
	"testing"

	"rambda"
	"rambda/internal/cpoll"
	"rambda/internal/dlrm"
	"rambda/internal/experiments"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// -parallel mirrors cmd/rambda-figures: worker goroutines fanning each
// experiment's sweep points (0 = one per CPU, 1 = sequential). Usage:
// go test -bench=. -args -parallel 4. Results are bit-identical for
// every value; only wall-clock changes.
var benchParallel = flag.Int("parallel", 0, "experiment sweep workers (0 = NumCPU, 1 = sequential)")

func TestMain(m *testing.M) {
	flag.Parse()
	runner.SetDefault(*benchParallel)
	os.Exit(m.Run())
}

// --- Fig. 1: SmartNIC host-access latency ---

func BenchmarkFig1SmartNICHostAccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(2000, 1)
		b.ReportMetric(rows[len(rows)-1].Avg.Microseconds(), "us-avg@100%host")
		b.ReportMetric(rows[0].Avg.Microseconds(), "us-avg@0%host")
	}
}

// --- Fig. 5: DDIO/TPH memory bandwidth ---

func BenchmarkFig5DDIOTPH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5()
		for _, r := range rows {
			if !r.DDIO && !r.TPH {
				b.ReportMetric(r.WriteGBs, "GB/s-mem-write@off/off")
			}
			if r.DDIO && r.TPH {
				b.ReportMetric(r.WriteGBs, "GB/s-mem-write@on/on")
			}
		}
	}
}

// --- Fig. 7: microbenchmark ---

func fig7BenchConfig() experiments.Fig7Config {
	return experiments.Fig7Config{Nodes: 1 << 16, Requests: 10000, Window: 16, Seed: 7}
}

func BenchmarkFig7Microbenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(fig7BenchConfig())
		for _, r := range rows {
			if r.Mem == "dram" {
				switch r.Config {
				case "CPU-1", "RAMBDA", "RAMBDA-LH":
					b.ReportMetric(r.Throughput/1e6, "Mops-"+r.Config)
				}
			}
		}
	}
}

// --- Figs. 8-10 + Tab. III: KVS ---

func kvsBenchConfig() experiments.KVSConfig {
	cfg := experiments.DefaultKVSConfig()
	cfg.Keys = 1 << 16
	cfg.Requests = 8000
	return cfg
}

func BenchmarkFig8KVSPeakThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(kvsBenchConfig())
		for _, r := range rows {
			if r.Dist == "uniform" && r.Workload == "get" {
				b.ReportMetric(r.Throughput/1e6, "Mops-"+r.System)
			}
		}
	}
}

func BenchmarkFig9KVSLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(kvsBenchConfig())
		for _, r := range rows {
			if r.Dist == "uniform" && r.P99 != 0 {
				b.ReportMetric(r.P99.Microseconds(), "us-p99-"+r.System)
			}
		}
	}
}

func BenchmarkFig10BatchSweep(b *testing.B) {
	cfg := kvsBenchConfig()
	cfg.Requests = 6000
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10(cfg)
		gains := map[string][2]float64{}
		for _, r := range rows {
			g := gains[r.System]
			if r.Batch == 1 {
				g[0] = r.Throughput
			}
			if r.Batch == 32 {
				g[1] = r.Throughput
			}
			gains[r.System] = g
		}
		for sys, g := range gains {
			b.ReportMetric(g[1]/g[0], "x-batch-gain-"+sys)
		}
	}
}

func BenchmarkTab3PowerEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Tab3(kvsBenchConfig()) {
			b.ReportMetric(r.KopPerW, "KopPerW-"+r.System)
		}
	}
}

// --- Fig. 12: chain-replicated transactions ---

func BenchmarkFig12ChainTxLatency(b *testing.B) {
	cfg := experiments.Fig12Config{Pairs: 4000, Transactions: 3000, Seed: 12}
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(cfg)
		for _, r := range rows {
			if r.ValueBytes == 64 {
				b.ReportMetric(r.Avg.Microseconds(), "us-avg-"+r.System+r.Shape)
			}
		}
	}
}

// --- Fig. 13: DLRM inference ---

func BenchmarkFig13DLRMThroughput(b *testing.B) {
	cfg := experiments.Fig13Config{Queries: 5000, Dim: 64, RowScale: 0.05, Seed: 13}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Fig13(cfg) {
			if r.Dataset == dlrm.AmazonCategories[0].Name {
				switch r.System {
				case "CPU-8", "RAMBDA", "RAMBDA-LH":
					b.ReportMetric(r.Throughput/1e6, "Mqps-"+r.System)
				}
			}
		}
	}
}

// --- Ablations (DESIGN.md Sec. 4) ---

// BenchmarkAblationCpollVsPolling isolates the notification mechanism.
func BenchmarkAblationCpollVsPolling(b *testing.B) {
	cfg := fig7BenchConfig()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(cfg)
		var polling, cp float64
		for _, r := range rows {
			if r.Mem == "dram" && r.Config == "RAMBDA-polling" {
				polling = r.Throughput
			}
			if r.Mem == "dram" && r.Config == "RAMBDA" {
				cp = r.Throughput
			}
		}
		b.ReportMetric(cp/polling, "x-cpoll-gain")
	}
}

// BenchmarkAblationPointerVsDirect compares the two cpoll region
// layouts end to end on the echo workload.
func BenchmarkAblationPointerVsDirect(b *testing.B) {
	run := func(mode cpoll.Mode) float64 {
		sm := rambda.NewMachine(rambda.MachineConfig{Name: "srv", Variant: rambda.Prototype})
		cm := rambda.NewMachine(rambda.MachineConfig{Name: "cli"})
		rambda.Connect(sm, cm)
		app := rambda.AppFunc(func(ctx *rambda.AppCtx, now rambda.Time, req []byte) ([]byte, rambda.Time) {
			return req, ctx.Compute(now, 8)
		})
		opts := rambda.DefaultServerOptions()
		opts.Connections = 4
		opts.RingEntries = 16
		opts.EntryBytes = 64
		opts.Mode = mode
		s := rambda.NewServer(sm, app, opts)
		conns := make([]*rambda.Client, 4)
		for i := range conns {
			conns[i] = rambda.Dial(cm, s, i)
		}
		res := sim.ClosedLoop{Clients: 32, PerClient: 100, Warmup: 2}.Run(
			func(id int, issue sim.Time) sim.Time {
				_, done := conns[id%4].Call(issue, []byte("abcd"))
				return done
			})
		return res.Throughput
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(cpoll.PointerBuffer)/1e6, "Mops-pointer")
		b.ReportMetric(run(cpoll.Direct)/1e6, "Mops-direct")
	}
}

// BenchmarkAblationAdaptiveDDIO isolates the NVM write-amplification
// effect (Fig. 7's NVM pair).
func BenchmarkAblationAdaptiveDDIO(b *testing.B) {
	cfg := fig7BenchConfig()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(cfg)
		var ddio, adaptive float64
		for _, r := range rows {
			if r.Mem == "nvm" && r.Config == "RAMBDA-DDIO" {
				ddio = r.Throughput
			}
			if r.Mem == "nvm" && r.Config == "RAMBDA" {
				adaptive = r.Throughput
			}
		}
		b.ReportMetric(adaptive/ddio, "x-adaptive-gain")
	}
}

// BenchmarkAblationMERCIMemoization compares memoized vs native
// reduction traffic.
func BenchmarkAblationMERCIMemoization(b *testing.B) {
	cat := dlrm.AmazonCategories[0]
	cat.Rows = 1 << 14
	ds := dlrm.NewDataset(cat, 9)
	sm := rambda.NewMachine(rambda.MachineConfig{Name: "m"})
	rng := rambda.NewRNG(9)
	table := dlrm.NewTable(sm.Space, "t", cat.Rows, 64, rambda.DRAM, rng)
	memo := dlrm.BuildMemo(sm.Space, "memo", table, ds.Bundles, cat.Rows/4, rambda.DRAM, rng)
	mlp := dlrm.NewMLP(64, 32, rng)
	withMemo := dlrm.NewModel(table, memo, mlp, ds.Bundles)
	native := dlrm.NewModel(table, nil, mlp, ds.Bundles)

	b.ResetTimer()
	var mAcc, nAcc int
	for i := 0; i < b.N; i++ {
		q := ds.NextQuery()
		_, _, st := withMemo.Infer(q, dlrm.AggSum)
		_, _, nst := native.Infer(q, dlrm.AggSum)
		mAcc += len(st.Trace)
		nAcc += len(nst.Trace)
	}
	b.ReportMetric(float64(nAcc)/float64(mAcc), "x-access-reduction")
}

// BenchmarkAblationDoorbellBatching isolates the SQ handler's response
// doorbell amortization (Fig. 10's RAMBDA 2x effect).
func BenchmarkAblationDoorbellBatching(b *testing.B) {
	cfg := kvsBenchConfig()
	cfg.Requests = 6000
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10(cfg)
		var b1, b32 float64
		for _, r := range rows {
			if r.System == "RAMBDA" && r.Batch == 1 {
				b1 = r.Throughput
			}
			if r.System == "RAMBDA" && r.Batch == 32 {
				b32 = r.Throughput
			}
		}
		b.ReportMetric(b32/b1, "x-doorbell-batch-gain")
	}
}
