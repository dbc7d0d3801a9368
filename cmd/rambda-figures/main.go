// rambda-figures regenerates every table and figure of the paper's
// evaluation section on the simulated testbed.
//
// Usage:
//
//	go run ./cmd/rambda-figures              # everything, one worker per CPU
//	go run ./cmd/rambda-figures -only fig8   # one experiment
//	go run ./cmd/rambda-figures -only fig8,fig9,fig10,tab3  # several, in print order
//	go run ./cmd/rambda-figures -quick       # smaller workloads
//	go run ./cmd/rambda-figures -parallel 1  # sequential (pre-harness behaviour)
//	go run ./cmd/rambda-figures -obs-dir obs     # also export spans/metrics to obs/<id>.{trace,metrics}.json
//
// Every figure enumerates its sweep as independent runner jobs; the
// CLI flattens all selected figures into a single worker pool so whole
// figures overlap with each other as well as their own points. Output
// is printed in a fixed order from slot-indexed results, so it is
// byte-identical for every -parallel value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"rambda/internal/experiments"
	"rambda/internal/runner"
)

func main() { os.Exit(run()) }

// run is the whole command. It returns the exit status instead of
// calling os.Exit, so the deferred profile and trace writers still
// flush when a job panics or an export fails: the failed run is the
// one most worth profiling.
func run() int {
	only := flag.String("only", "", "comma-separated experiments to run: fig1, fig5, fig7, fig8, fig9, fig10, fig12, fig13, tab3, scalability, chaos, breakdown, scaleout, chaos-scaleout, ycsb")
	quick := flag.Bool("quick", false, "scale workloads down for a fast pass")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for sweep points (1 = sequential)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after all figures) to this file")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	obsDir := flag.String("obs-dir", "", "write each selected experiment's collected spans and metrics to <dir>/<id>.trace.json and <dir>/<id>.metrics.json (breakdown, scaleout, chaos-scaleout, ycsb)")
	flag.Parse()

	// A bad export directory fails before any job runs, not after the
	// sweep.
	if *obsDir != "" {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer trace.Stop()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	runner.SetDefault(*parallel)

	selected, err := experiments.SelectSpecs(*quick, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// One flat pool across every selected figure: points of different
	// figures run side by side, results land in per-figure slots.
	var jobs []runner.Job
	for _, s := range selected {
		jobs = append(jobs, s.Jobs...)
	}
	if err := runner.Run(*parallel, jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, s := range selected {
		fmt.Println(s.Table())
	}
	if *obsDir != "" {
		for _, s := range selected {
			if err := experiments.WriteObs(*obsDir, s); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}
	return 0
}
