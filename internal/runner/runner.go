// Package runner is the experiment harness that fans independent
// simulation runs across a pool of worker goroutines while guaranteeing
// bit-identical output to the sequential path.
//
// The contract that makes this safe is isolation: every Job is one
// self-contained sweep point that builds its own core.Machine, seeds
// its own sim.RNG (see Seed), and writes its result into a slot indexed
// by its sweep position. Workers never share simulation state, so the
// order in which jobs *complete* cannot affect the order or content of
// the results; only the order in which they were *enumerated* does.
// `Run(1, jobs)` executes the jobs strictly sequentially in enumeration
// order, reproducing the pre-harness behaviour exactly.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one independent sweep point of an experiment.
type Job struct {
	Experiment string // experiment id, e.g. "fig7"
	Point      int    // sweep position (the result slot index)
	Name       string // human-readable label, used in errors
	Fn         func() // runs the point and stores its result
}

// PanicError reports a job that panicked; the whole run fails with the
// job's identity attached so a crash inside a 48-point sweep is
// attributable without re-running.
type PanicError struct {
	Experiment string
	Point      int
	Name       string
	Value      any
	Stack      []byte
}

// Error formats the job identity and the recovered value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s[%d] %q panicked: %v", e.Experiment, e.Point, e.Name, e.Value)
}

// defaultParallel holds the process-wide worker count used when a call
// passes parallel <= 0. Zero means runtime.NumCPU().
var defaultParallel atomic.Int64

// SetDefault sets the process-wide default worker count (n <= 0 resets
// to runtime.NumCPU()). cmd/rambda-figures and the benchmark harness
// thread their -parallel flag through this.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallel.Store(int64(n))
}

// Default returns the worker count used when parallel <= 0 is passed.
func Default() int {
	if n := int(defaultParallel.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Run executes the jobs on `parallel` workers (parallel <= 0 uses
// Default()) and blocks until all have finished. With parallel == 1 the
// jobs run sequentially in slice order on the calling goroutine. If any
// job panics, no job starts after that panic is recovered, and the
// error for the lowest-indexed panicking job is returned — the choice
// is deterministic even when several jobs fail in the same run.
func Run(parallel int, jobs []Job) error {
	if parallel <= 0 {
		parallel = Default()
	}
	if len(jobs) == 0 {
		return nil
	}
	if parallel > len(jobs) {
		parallel = len(jobs)
	}
	errs := make([]*PanicError, len(jobs))
	var failed atomic.Bool
	if parallel == 1 {
		for i := range jobs {
			if runJob(&jobs[i], &errs[i], &failed); errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}
	runPool(parallel, jobs, errs, &failed)
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runPool runs jobs on parallel workers, each claiming the next
// unclaimed index. A worker checks failed before it starts a job, so no
// job starts after runJob has recovered a panic.
func runPool(parallel int, jobs []Job, errs []*PanicError, failed *atomic.Bool) {
	var (
		next atomic.Int64 // index of the next unclaimed job
		wg   sync.WaitGroup
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || failed.Load() {
					return
				}
				if runJob(&jobs[i], &errs[i], failed); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// runJob executes one job, converting a panic into a PanicError. It
// raises failed before capturing the stack, so other workers stop
// claiming jobs as soon as the panic is recovered rather than after the
// capture.
func runJob(j *Job, slot **PanicError, failed *atomic.Bool) {
	defer func() {
		if v := recover(); v != nil {
			failed.Store(true)
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			*slot = &PanicError{
				Experiment: j.Experiment, Point: j.Point, Name: j.Name,
				Value: v, Stack: buf,
			}
		}
	}()
	j.Fn()
}

// MustRun is Run for callers without an error path (the experiment
// functions historically panic on internal failures); a job panic is
// re-raised with the job identity attached.
func MustRun(parallel int, jobs []Job) {
	if err := Run(parallel, jobs); err != nil {
		panic(err)
	}
}

// Jobs builds the job list for one experiment's n-point sweep: point i
// gets label name(i) and body fn(i). name may be nil.
func Jobs(experiment string, n int, name func(int) string, fn func(int)) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		label := ""
		if name != nil {
			label = name(i)
		}
		i := i
		jobs[i] = Job{Experiment: experiment, Point: i, Name: label, Fn: func() { fn(i) }}
	}
	return jobs
}

// Seed derives a deterministic sim.RNG seed from an (experiment, point)
// key via an FNV-1a fold, so concurrently executing sweep points that
// need fresh randomness never share a stream and never depend on
// scheduling order.
func Seed(experiment string, point int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(experiment); i++ {
		h ^= uint64(experiment[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(point>>(8*i)) & 0xff
		h *= prime64
	}
	return h
}

// SubSeed derives an independent stream seed below a point-level seed
// with the same FNV-1a fold — one per simulated entity *inside* a sweep
// point (the scale-out cluster seeds one RNG per shard this way). The
// fold keeps sibling streams disjoint by construction, so adding or
// removing entities never perturbs the others' draws.
func SubSeed(seed uint64, sub int) uint64 {
	const prime64 = 1099511628211
	h := seed
	for i := 0; i < 8; i++ {
		h ^= uint64(sub>>(8*i)) & 0xff
		h *= prime64
	}
	return h
}
