// rambda-bench is the performance-regression harness: it times every
// paper figure end to end, runs the sim engine's microbenchmark
// kernels, and writes the results as JSON (BENCH_<pr>.json in the repo
// root records the trajectory across PRs).
//
// Usage:
//
//	go run ./cmd/rambda-bench -quick                 # figures + micro, write the next BENCH_<n>.json
//	go run ./cmd/rambda-bench -quick -parallel 1     # the configuration BENCH files are recorded in (make bench)
//	go run ./cmd/rambda-bench -skip-figures          # microbenchmarks only
//	go run ./cmd/rambda-bench -quick -baseline BENCH_<n>.json
//	go run ./cmd/rambda-bench -quick -parallel 1 -ab HEAD^
//
// Each figure runs in a child process (the same binary, invoked as
// `rambda-bench [-quick] [-parallel N] figure <id>`), which reports its
// wall time and heap allocations; its peak RSS is the child's
// getrusage ru_maxrss.
//
// With -baseline, the run fails (exit 1) when an allocation count
// regresses; allocation counts are deterministic, so one stored reading
// is a fair baseline:
//   - a microbenchmark allocates more per op than the baseline (with a
//     one-alloc slack) — steady-state-zero kernels must stay at zero;
//   - a figure's heap allocation count grows by more than -max-regress
//     (only checked when both runs used the same -quick scale).
//
// A baseline kernel that the current run no longer has is retired: it
// is named on stderr and not gated.
//
// Time is gated by -ab <rev>: the harness checks <rev> out in a local
// shared clone, builds its rambda-bench and rambda-figures next to the
// working tree's, and runs the two builds alternately for abRounds
// rounds — every kernel (one -skip-figures run per build and round) and
// every figure (rambda-figures -only <id>, timed by the child's CPU
// time). A kernel or figure fails when its paired current/base time
// ratio is at least 1 + -max-regress in the median and in at least
// abRounds-1 of the rounds. The noise of a shared host is per kernel
// and per run, so only a slowdown that repeats in paired runs counts.
//
// JSON schema (BENCH_*.json):
//
//	{
//	  "schema": "rambda-bench/1",
//	  "quick": bool, "parallel": int, "go": string,
//	  "calibration_ns_per_op": float,        // RNGUint64 ns/op, a recorded host fact
//	  "figures": {"<id>": {
//	      "wall_ns":        int,   // figure jobs + table render
//	      "allocs":         int,   // heap allocations during the figure
//	      "peak_rss_bytes": int    // the figure's child process ru_maxrss
//	  }},
//	  "micro": {"<kernel>": {
//	      "ns_per_op": float, "allocs_per_op": int, "bytes_per_op": int
//	  }}
//	}
//
// BENCH_2 to BENCH_15 also carry a per-kernel "normalized"
// score (ns_per_op / calibration_ns_per_op); readers ignore it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"rambda/internal/chainrep"
	"rambda/internal/dlrm"
	"rambda/internal/experiments"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/memspace"
	"rambda/internal/rnic"
	"rambda/internal/runner"
	"rambda/internal/scaleout"
	"rambda/internal/sim"
)

type figureResult struct {
	WallNS       int64 `json:"wall_ns"`
	Allocs       int64 `json:"allocs"`
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

type microResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	Schema        string                  `json:"schema"`
	Quick         bool                    `json:"quick"`
	Parallel      int                     `json:"parallel"`
	Go            string                  `json:"go"`
	CalibrationNs float64                 `json:"calibration_ns_per_op"`
	Figures       map[string]figureResult `json:"figures"`
	Micro         map[string]microResult  `json:"micro"`
}

// microKernels names each sim kernel timed by the harness. RNGUint64 is
// timed first, separately, and recorded as the host's calibration.
var microKernels = []struct {
	name string
	fn   func(n int)
}{
	{"ResourceAcquireGapFree", func(n int) { sim.BenchAcquireGapFree(n) }},
	{"ResourceAcquireGapHeavy", func(n int) { sim.BenchAcquireGapHeavy(n) }},
	{"ResourceAcquireGapSaturated", func(n int) { sim.BenchAcquireGapSaturated(n) }},
	{"ResourceAcquireBackfillMix", func(n int) { sim.BenchAcquireBackfillMix(n) }},
	{"ResourceAcquireShortGapsLongOps", func(n int) { sim.BenchAcquireShortGapsLongOps(n) }},
	{"ClosedLoopRun", func(n int) { sim.BenchClosedLoop(n) }},
	{"HistogramRecord", func(n int) { sim.BenchHistogramRecord(n) }},
	{"HistogramPercentile", func(n int) { sim.BenchHistogramPercentile(n) }},
	{"ZipfNext", func(n int) { sim.BenchZipf(n) }},
	{"RCWriteHotPath", func(n int) { rnic.BenchWriteHotPath(n) }},
	{"RCRetransmitStorm", func(n int) { rnic.BenchRetransmitStorm(n) }},
	{"ChainFailoverReplay", func(n int) { chainrep.BenchFailoverReplay(n) }},
	{"ShardRouteHotPath", func(n int) { scaleout.BenchShardRouteHotPath(n) }},
	{"MigrationFailoverReplay", func(n int) { scaleout.BenchMigrationFailoverReplay(n) }},
	{"LSMReadHotPath", func(n int) { lsm.BenchReadHotPath(n) }},
	{"ScanMerge", func(n int) { lsm.BenchScanMerge(n) }},
	{"LSMWriteCompact", func(n int) { lsm.BenchWriteCompact(n) }},
	{"KVSPreload", func(n int) { kvs.BenchPreload(n) }},
	{"KVSGetInto", func(n int) { kvs.BenchGetHit(n) }},
	{"KVSCheckoutRollback", func(n int) { kvs.BenchCheckoutRollback(n) }},
	{"MemspaceRegion", func(n int) { memspace.BenchRegion(n) }},
	{"DLRMInferInto", func(n int) { dlrm.BenchInferInto(n) }},
}

func main() {
	quick := flag.Bool("quick", false, "run figures at quick scale (mirrors rambda-figures -quick)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for figure sweep points")
	out := flag.String("out", nextBenchPath(), "output JSON path (the next BENCH_<n>.json in the working directory by default)")
	only := flag.String("only", "", "comma-separated figure ids to time (e.g. fig7,fig8)")
	skipFigures := flag.Bool("skip-figures", false, "skip figure timings, run only the sim microbenchmarks")
	baselinePath := flag.String("baseline", "", "baseline BENCH_*.json to gate allocation counts against")
	maxRegress := flag.Float64("max-regress", 0.25, "fail on a regression beyond this fraction (figure allocations; paired A/B time)")
	abRev := flag.String("ab", "", "git revision to A/B every kernel's and figure's time against (e.g. HEAD^)")
	flag.Parse()

	if flag.NArg() == 2 && flag.Arg(0) == "figure" {
		if err := figureChild(*quick, *parallel, flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	specs, err := experiments.SelectSpecs(*quick, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep := report{
		Schema:   "rambda-bench/1",
		Quick:    *quick,
		Parallel: *parallel,
		Go:       runtime.Version(),
		Figures:  map[string]figureResult{},
		Micro:    map[string]microResult{},
	}

	// Figures first: on Linux a child's ru_maxrss starts from its
	// parent's peak when it execs, so the children must start while
	// this process is still small (before any kernel has run).
	if !*skipFigures {
		for _, s := range specs {
			r, err := runFigure(*quick, *parallel, s.ID)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			rep.Figures[s.ID] = r
			fmt.Fprintf(os.Stderr, "figure %-12s %10s  %12d allocs  peak-rss %d MiB\n",
				s.ID, time.Duration(r.WallNS).Round(time.Millisecond), r.Allocs, r.PeakRSSBytes>>20)
		}
	}

	// Calibration before the other kernels, on a quiet process.
	calib := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		sim.BenchRNG(b.N)
	})
	rep.CalibrationNs = nsPerOp(calib)
	fmt.Fprintf(os.Stderr, "calibration RNGUint64: %.2f ns/op\n", rep.CalibrationNs)
	rep.Micro["RNGUint64"] = microResult{
		NsPerOp:     nsPerOp(calib),
		AllocsPerOp: calib.AllocsPerOp(),
		BytesPerOp:  calib.AllocedBytesPerOp(),
	}

	for _, k := range microKernels {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			k.fn(b.N)
		})
		m := microResult{
			NsPerOp:     nsPerOp(r),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Micro[k.name] = m
		fmt.Fprintf(os.Stderr, "micro %-28s %12.2f ns/op  %6d B/op  %4d allocs/op\n",
			k.name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	failed := false
	if *baselinePath != "" {
		failed = compareBaseline(os.Stderr, &rep, *baselinePath, *maxRegress)
	}
	if *abRev != "" {
		abFailed, err := runAB(os.Stderr, *abRev, *quick, *parallel, specs, *maxRegress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ab:", err)
			os.Exit(2)
		}
		failed = failed || abFailed
	}
	if failed {
		os.Exit(1)
	}
}

// figureChild runs one figure in this process and writes its wall time
// and heap allocation count to stdout as a figureResult.
func figureChild(quick bool, parallel int, id string) error {
	runner.SetDefault(parallel)
	specs, err := experiments.SelectSpecs(quick, id)
	if err != nil {
		return err
	}
	if len(specs) != 1 {
		return fmt.Errorf("figure %q selects %d specs, want 1", id, len(specs))
	}
	s := specs[0]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if err := runner.Run(parallel, s.Jobs); err != nil {
		return err
	}
	_ = s.Table().String()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return json.NewEncoder(os.Stdout).Encode(figureResult{
		WallNS: wall.Nanoseconds(),
		Allocs: int64(ms1.Mallocs - ms0.Mallocs),
	})
}

// runFigure times one figure in a child process of this binary; the
// peak RSS is the child's own high-water mark.
func runFigure(quick bool, parallel int, id string) (figureResult, error) {
	var r figureResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "-quick="+strconv.FormatBool(quick), "-parallel="+strconv.Itoa(parallel), "figure", id)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("figure %s: %w", id, err)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("figure %s: %w", id, err)
	}
	r.PeakRSSBytes = maxRSSBytes(cmd.ProcessState)
	return r, nil
}

// maxRSSBytes is an exited child's peak resident set (ru_maxrss, which
// Linux reports in KiB); 0 where the platform has no rusage.
func maxRSSBytes(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss << 10
	}
	return 0
}

// nsPerOp keeps fractional precision (BenchmarkResult.NsPerOp truncates
// to an integer, useless for sub-100ns kernels).
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// compareBaseline checks every microbenchmark's allocs/op and every
// figure's allocation count present in both runs, writes one line per
// comparison to w, and reports regressions. Baseline kernels missing
// from rep are named as retired and not gated. Time is not compared
// here: a stored reading from another run is no baseline for it (see
// -ab).
func compareBaseline(w io.Writer, rep *report, path string, maxRegress float64) (failed bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(w, "baseline: %v\n", err)
		return true
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(w, "baseline %s: %v\n", path, err)
		return true
	}
	var retired []string
	for name := range base.Micro {
		if _, ok := rep.Micro[name]; !ok {
			retired = append(retired, name)
		}
	}
	sort.Strings(retired)
	for _, name := range retired {
		fmt.Fprintf(w, "compare %-28s retired, not gated\n", name)
	}
	for _, name := range sortedKeys(rep.Micro) {
		cur := rep.Micro[name]
		b, ok := base.Micro[name]
		if !ok {
			continue
		}
		// Alloc counts are deterministic per op; one alloc of slack
		// absorbs testing.Benchmark's occasional warmup remainder.
		status := "ok"
		if cur.AllocsPerOp > b.AllocsPerOp+1 {
			status = "ALLOC REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "compare %-28s baseline %4d allocs/op  now %4d allocs/op  %s\n",
			name, b.AllocsPerOp, cur.AllocsPerOp, status)
	}
	// Figure alloc counts are only comparable at the same sweep scale.
	// Tiny figures (a few thousand allocs) are dominated by harness and
	// engine setup, where a handful of extra allocations blows past any
	// ratio; an absolute slack keeps the gate meaningful for the large
	// sweeps without tripping on setup noise.
	const figureAllocSlack = 8192
	if rep.Quick == base.Quick {
		for _, id := range sortedKeys(rep.Figures) {
			cur := rep.Figures[id]
			b, ok := base.Figures[id]
			if !ok || b.Allocs <= 0 {
				continue
			}
			ratio := float64(cur.Allocs) / float64(b.Allocs)
			status := "ok"
			if ratio > 1+maxRegress && cur.Allocs-b.Allocs > figureAllocSlack {
				status = "ALLOC REGRESSION"
				failed = true
			}
			fmt.Fprintf(w, "compare %-28s baseline %12d allocs  now %12d allocs  ratio %.2fx  %s\n",
				id, b.Allocs, cur.Allocs, ratio, status)
		}
	}
	if failed {
		fmt.Fprintf(w, "FAIL: allocation regression vs %s\n", path)
	}
	return failed
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nextBenchPath names the BENCH_<n>.json after the highest-numbered
// one in the working directory, as `make bench` does.
func nextBenchPath() string {
	last := 0
	paths, _ := filepath.Glob("BENCH_*.json")
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json"))
		if err == nil && n > last {
			last = n
		}
	}
	return fmt.Sprintf("BENCH_%d.json", last+1)
}
