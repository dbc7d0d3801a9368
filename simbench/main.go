// simbench is the simulator's benchmark. One run measures one workload
// for a given number of seconds, checks the simulated outputs, prints
// one "<workload> <metric> <value> <unit>" line per metric, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.py builds the binary first):
//
//	python3 simbench/run.py --workload kvs-peak --seed 1 --seconds 15 --trace 0
//	python3 simbench/run.py --workload kvs-peak --seed 1 --seconds 15 --trace 1
//	python3 simbench/run.py --workload kvs-peak --out A.jsonl ...
//	python3 simbench/run.py --compare A.jsonl B.jsonl
//
// Untraced runs (--trace 0) report the end-to-end metrics of
// BENCHMARK.json. Traced runs (--trace 1) alternate untraced and traced
// repetitions, report the per-layer metrics, and write the kept span
// trees and layer totals under .bench_build/trace. A run whose outputs
// are not correct still prints its JSON line, then exits 1.
//
// Every workload runs in this one process with the simulation on one
// goroutine (runner parallel 1, sim.SetParallel(1)).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"rambda/internal/runner"
	"rambda/internal/sim"
)

// traceDir receives the traced run's files, relative to the root.
const traceDir = ".bench_build/trace"

// workload is one set of inputs. run builds a fresh system and drives
// it once; minReps is the fewest repetitions a run makes. A workload of
// one repetition (the suite) fills the budget with it.
type workload struct {
	name    string
	minReps int
	run     func(seed uint64, tr *tracer) (rep, error)
}

func workloads(root string) []workload {
	return []workload{
		{"suite-quick", 1, func(_ uint64, tr *tracer) (rep, error) { return runSuite(root, nil, tr) }},
		{"kvs-peak", 3, func(seed uint64, tr *tracer) (rep, error) { return runKVS(kvsPeak, seed, tr), nil }},
		{"lsm-update", 3, func(seed uint64, tr *tracer) (rep, error) { return runKVS(lsmUpdate, seed, tr), nil }},
		{"dlrm-lh", 3, func(seed uint64, tr *tracer) (rep, error) { return runDLRM(dlrmLH, seed, tr), nil }},
	}
}

type metric struct {
	name, unit string
	value      float64
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is what -out appends: the result with the run's identity.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	setMicroBenchtime()
	os.Exit(run(".", workloads("."), os.Args[1:], os.Stdout, os.Stderr))
}

// run runs one of all from the repository root and returns the exit
// code: 0 for a correct run, 1 for a failed or incorrect one, 2 for bad
// arguments.
func run(root string, all []workload, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite-quick, kvs-peak, lsm-update or dlrm-lh")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 10, "measure for this many seconds (at least the workload's minimum repetitions)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append the run's record as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two files of -out records: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "simbench: -compare takes two record files")
			return 2
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "simbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var w *workload
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "simbench: unknown workload %q\n", *name)
		return 2
	}

	runner.SetDefault(1)
	sim.SetParallel(1)
	res, err := bench(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, root, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace == 1, Result: res}); err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "simbench: %s: not correct (%d of %d failed)\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// bench runs w within budget (see repeat) and reports the medians over
// its repetitions. A traced run reports the per-layer metrics and
// writes the trace files under root.
func bench(w workload, seed uint64, budget time.Duration, traced bool, root string, stdout io.Writer) (result, error) {
	names := layerNames()
	plain, tracedReps, events, err := repeat(w, seed, budget, traced, len(names))
	if err != nil {
		return result{}, err
	}

	var res result
	differ := false
	all := append(slices.Clone(plain), tracedReps...)
	for _, r := range all {
		res.Attempted += r.requests
		res.Failed += r.failed
		differ = differ || r.model != all[0].model
	}
	if differ {
		fmt.Fprintf(os.Stderr, "%s: modeled results differ between repetitions of one seed\n", w.name)
	}
	res.Correct = res.Failed == 0 && !differ

	var ms []metric
	if traced {
		var micro []metric
		for _, k := range microKernels {
			loop := k.setup()
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				loop(b.N)
			})
			micro = append(micro,
				metric{"micro." + k.name + ".ns_per_op", "ns", float64(r.T.Nanoseconds()) / float64(r.N)},
				metric{"micro." + k.name + ".allocs_per_op", "count", float64(r.AllocsPerOp())})
		}
		ms = perLayer(names, plain, tracedReps, micro)
		layers := map[string]float64{}
		for _, m := range ms {
			layers[m.name] = m.value
		}
		if err := writeTrace(filepath.Join(root, traceDir), w.name, names, events, layers); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
	} else {
		ms = endToEnd(plain)
	}
	res.Metrics = map[string]value{}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%s %s %v %s\n", w.name, m.name, m.value, m.unit)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	return res, nil
}

// repeat runs at least w.minReps repetitions of w, and more while they
// fit in budget. A traced run follows each untraced repetition with a
// traced one, so trace_overhead compares repetitions run side by side.
// A workload of one repetition is the exception: that repetition fills
// the budget, so its traced run makes only the traced one.
func repeat(w workload, seed uint64, budget time.Duration, traced bool, layers int) (plain, tracedReps []rep, events []span, err error) {
	off := newTracer(false, layers)
	on := newTracer(true, layers)
	untraced := !traced || w.minReps > 1
	start := time.Now()
	for n := 0; ; n++ {
		// Stop when one more repetition of average length would overrun
		// the budget.
		if elapsed := time.Since(start); n >= w.minReps && elapsed+elapsed/time.Duration(n) > budget {
			return plain, tracedReps, events, nil
		}
		if untraced {
			r, err := measure(w, seed, off)
			if err != nil {
				return nil, nil, nil, err
			}
			plain = append(plain, r)
		}
		if traced {
			r, err := measure(w, seed, on)
			if err != nil {
				return nil, nil, nil, err
			}
			tracedReps = append(tracedReps, r)
			events = append(events[:0], on.events...)
		}
	}
}

// measure runs one repetition between a heap and RSS reset and records
// its allocations and peak RSS; with tr enabled it also records the
// per-layer totals.
func measure(w workload, seed uint64, tr *tracer) (rep, error) {
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr.reset()
	r, err := w.run(seed, tr)
	if err != nil {
		return rep{}, err
	}
	runtime.ReadMemStats(&m1)
	r.allocs = m1.Mallocs - m0.Mallocs
	r.peakRSS = max(r.peakRSS, peakRSS())
	if tr.on {
		r.self = slices.Clone(tr.self)
		r.calls = slices.Clone(tr.calls)
		r.untimed = r.wall - tr.selfSum()
	}
	return r, nil
}

// medianOf is the median of f over reps.
func medianOf(reps []rep, f func(rep) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return median(vs)
}

// cpu is a repetition's CPU time, set-up and run.
func cpu(r rep) float64 { return (r.setup + r.run).Seconds() }

// endToEnd lists the metrics a user of the simulator sees, as medians
// over the untraced repetitions. Times are process CPU time (see
// cpuTime).
func endToEnd(reps []rep) []metric {
	return []metric{
		{"cpu_s", "s", medianOf(reps, cpu)},
		{"setup_s", "s", medianOf(reps, func(r rep) float64 { return r.setup.Seconds() })},
		{"peak_rss_mib", "MiB", medianOf(reps, func(r rep) float64 { return float64(r.peakRSS) / (1 << 20) })},
		{"heap_allocs", "count", medianOf(reps, func(r rep) float64 { return float64(r.allocs) })},
	}
}

// perLayer lists each layer's self time (wall clock inside its spans)
// and calls, as medians over the traced repetitions; the modeled results
// and counters; the simulated request rate per CPU second; the tracing
// overhead; and the micro kernels. Layers a workload does not reach
// read 0. Without untraced repetitions (the suite) the rate comes from
// the traced ones and the overhead is the tracer's own cost.
func perLayer(names []string, plain, traced []rep, micro []metric) []metric {
	var ms []metric
	for i, n := range names {
		ms = append(ms,
			metric{n + ".self_s", "s", medianOf(traced, func(r rep) float64 { return r.self[i].Seconds() })},
			metric{n + ".calls", "count", medianOf(traced, func(r rep) float64 { return float64(r.calls[i]) })})
	}
	// The overhead is the median over pairs of repetitions run side by
	// side, so drift in the host's speed between pairs cancels.
	var overhead float64
	if len(plain) > 0 {
		pairs := make([]float64, len(traced))
		for i, r := range traced {
			pairs[i] = cpu(r)/cpu(plain[i]) - 1
		}
		overhead = median(pairs)
	} else {
		plain = traced
		perSpan := spanCost()
		overhead = medianOf(traced, func(r rep) float64 {
			var spans int64
			for _, c := range r.calls {
				spans += c
			}
			cost := float64(spans) * perSpan
			return cost / (cpu(r) - cost)
		})
	}
	m := plain[0].model
	ms = append(ms,
		metric{"model.mops", "Mops", m.Mops},
		metric{"model.p50_us", "us", m.P50us},
		metric{"model.p99_us", "us", m.P99us})
	for i, u := range utilNames {
		ms = append(ms, metric{"model.util." + u, "ratio", m.Util[i]})
	}
	ms = append(ms,
		metric{"kvs.misses", "count", float64(m.Misses)},
		metric{"lsm.flushes", "count", float64(m.Flushes)},
		metric{"lsm.compactions", "count", float64(m.Compactions)},
		metric{"lsm.stalls", "count", float64(m.Stalls)},
		metric{"memspace.regions", "count", float64(m.Regions)},
		metric{"memspace.mib", "MiB", m.MiB},
		metric{"dlrm.gathers_per_query", "count", m.GathersPerQuery},
		metric{"sim.kreq_per_s", "kreq/s", medianOf(plain, func(r rep) float64 {
			return float64(r.model.Requests) / r.run.Seconds() / 1e3
		})},
		metric{"trace_overhead", "ratio", overhead},
		metric{"trace.untimed_frac", "ratio", medianOf(traced, func(r rep) float64 {
			return r.untimed.Seconds() / r.wall.Seconds()
		})})
	return append(ms, micro...)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
