package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rambda/internal/runner"
	"rambda/internal/sim"
)

func TestMain(m *testing.M) {
	setMicroBenchtime()
	runner.SetDefault(1)
	sim.SetParallel(1)
	os.Exit(m.Run())
}

// Reduced sizes: the same code paths as the benchmark's workloads in
// well under a second each.
var (
	smallKVS  = kvsParams{keys: 4096, conns: 4, clients: 32, perClient: 100}
	smallLSM  = kvsParams{keys: 1024, conns: 4, clients: 16, perClient: 400, lsm: true}
	smallDLRM = dlrmParams{rowScale: 0.05, dim: 64, clients: 16, perClient: 200}
)

// smallWorkloads mirrors workloads at reduced size, two repetitions
// each, so bench compares the modeled results of both.
func smallWorkloads() []workload {
	return []workload{
		{"suite-quick", 2, func(_ uint64, tr *tracer) (rep, error) {
			return runSuite("..", []string{"fig5", "fig7"}, tr)
		}},
		{"kvs-peak", 2, func(seed uint64, tr *tracer) (rep, error) { return runKVS(smallKVS, seed, tr), nil }},
		{"lsm-update", 2, func(seed uint64, tr *tracer) (rep, error) { return runKVS(smallLSM, seed, tr), nil }},
		{"dlrm-lh", 2, func(seed uint64, tr *tracer) (rep, error) { return runDLRM(smallDLRM, seed, tr), nil }},
	}
}

func TestWorkloadsRepeatAndPass(t *testing.T) {
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := bench(w, 7, 0, false, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d, want a correct run with no failures",
					res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestRepetitionsModelIdentically(t *testing.T) {
	a := runKVS(smallLSM, 3, newTracer(false, 0))
	b := runKVS(smallLSM, 3, newTracer(false, 0))
	if a.model != b.model {
		t.Fatalf("two repetitions of one seed modeled differently:\n%+v\n%+v", a.model, b.model)
	}
	if a.model.Flushes == 0 || a.model.Stalls == 0 {
		t.Fatalf("flushes=%d stalls=%d: the LSM workload must flush and stall", a.model.Flushes, a.model.Stalls)
	}
	if c := runKVS(smallLSM, 4, newTracer(false, 0)); c.model == a.model {
		t.Fatal("another seed modeled identically: the seed does not reach the inputs")
	}
}

// The experiments' KVS handlers charge writes with a zero slab, which
// accel.WriteData stores over the item just written. The benchmark's
// read-your-writes check must catch that.
func TestZeroWriteHandlerFails(t *testing.T) {
	p := smallKVS
	p.zeroWrites = true
	r := runKVS(p, 7, newTracer(false, 0))
	if r.failed == 0 {
		t.Fatal("zero-write handler passed the read-your-writes check")
	}
}

// A run whose outputs are wrong prints its result line and exits 1.
func TestIncorrectRunExitsNonZero(t *testing.T) {
	p := smallKVS
	p.zeroWrites = true
	all := []workload{{"kvs-peak", 2, func(seed uint64, tr *tracer) (rep, error) { return runKVS(p, seed, tr), nil }}}
	var stdout strings.Builder
	code := run(t.TempDir(), all, []string{"--workload", "kvs-peak", "--seed", "7", "--seconds", "1"}, &stdout, io.Discard)
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want an incorrect run with failures", res.Correct, res.Failed)
	}
}

// A traced run of a workload whose one repetition fills the budget (the
// suite) makes only the traced repetition, so it ends within the budget;
// the micro kernels come after.
func TestTracedRunStaysWithinBudget(t *testing.T) {
	const repTime, budget = 300 * time.Millisecond, 400 * time.Millisecond
	w := workload{"long", 1, func(uint64, *tracer) (rep, error) {
		w := startWatch()
		time.Sleep(repTime)
		var r rep
		r.runDone(&w)
		return r, nil
	}}
	start := time.Now()
	plain, traced, _, err := repeat(w, 1, budget, true, len(layerNames()))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > budget {
		t.Errorf("traced run took %v, want at most the %v budget", d, budget)
	}
	if len(plain) != 0 || len(traced) != 1 {
		t.Errorf("%d untraced and %d traced repetitions, want 0 and 1", len(plain), len(traced))
	}
}

func TestTracedSelfTimesCoverWall(t *testing.T) {
	root := t.TempDir()
	w := smallWorkloads()[1]
	res, err := bench(w, 7, 0, true, root, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Metrics["trace.untimed_frac"].Value; math.Abs(f) > 0.05 {
		t.Errorf("layer self times miss %.1f%% of the repetition's wall time, want at most 5%%", 100*f)
	}
	if c := res.Metrics["core.call.calls"].Value; c != float64(smallKVS.clients*smallKVS.perClient) {
		t.Errorf("core.call.calls = %v, want one per request", c)
	}
	for _, f := range []string{w.name + ".trace.json", w.name + ".layers.json"} {
		if _, err := os.Stat(filepath.Join(root, traceDir, f)); err != nil {
			t.Error(err)
		}
	}
}

// BENCHMARK.json and the binary must name the same workloads and
// metrics, with the same units.
func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, codeWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads("..") {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	if !slices.Equal(specWorkloads, codeWorkloads) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", specWorkloads, codeWorkloads)
	}

	var e2e, perLayer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	emitted := func(w workload, traced bool) []string {
		res, err := bench(w, 1, 0, traced, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for name, v := range res.Metrics {
			got = append(got, name+" "+v.Unit)
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s = %v", w.name, name, v.Value)
			}
		}
		return got
	}
	slices.Sort(e2e)
	slices.Sort(perLayer)
	for _, w := range smallWorkloads() {
		got := emitted(w, false)
		slices.Sort(got)
		if !slices.Equal(got, e2e) {
			t.Errorf("%s end-to-end metrics:\n got %v\nwant %v", w.name, got, e2e)
		}
	}
	// The suite's traced run has no untraced repetitions to compare with.
	suite := smallWorkloads()[0]
	suite.minReps = 1
	for _, w := range []workload{suite, smallWorkloads()[3]} {
		got := emitted(w, true)
		slices.Sort(got)
		if !slices.Equal(got, perLayer) {
			t.Errorf("%s per-layer metrics:\n got %v\nwant %v", w.name, got, perLayer)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpu float64, failed int64) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			res := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]value{
				"cpu_s": {cpu + float64(seed)/100, "s"}, "setup_s": {0.5, "s"},
				"peak_rss_mib": {100, "MiB"}, "heap_allocs": {1000, "count"},
			}}
			if err := appendRecord(path, record{Workload: "kvs-peak", Seed: seed, Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 1, 0)
	for _, c := range []struct {
		name   string
		cpu    float64
		failed int64
		want   int
	}{
		{"same", 1, 0, 0},
		{"faster", 0.5, 0, 0},
		{"slower", 1.5, 0, 1},
		{"failing", 1, 3, 1},
	} {
		got := compareFiles("..", base, write(c.name+".jsonl", c.cpu, c.failed), io.Discard, io.Discard)
		if got != c.want {
			t.Errorf("%s: compare exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
