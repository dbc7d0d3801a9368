package runner

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunFillsEverySlotInOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, 8, 64} {
		const n = 200
		out := make([]int, n)
		err := Run(parallel, Jobs("exp", n, nil, func(i int) { out[i] = i * i }))
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: slot %d = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndOversizedPool(t *testing.T) {
	if err := Run(8, nil); err != nil {
		t.Fatalf("empty job list: %v", err)
	}
	done := false
	if err := Run(16, Jobs("exp", 1, nil, func(int) { done = true })); err != nil || !done {
		t.Fatalf("single job on 16 workers: err=%v done=%v", err, done)
	}
}

func TestSequentialRunsInEnumerationOrder(t *testing.T) {
	var order []int
	MustRun(1, Jobs("exp", 50, nil, func(i int) { order = append(order, i) }))
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken at %d: %v", i, order[:i+1])
		}
	}
}

func TestPanicCarriesJobIdentity(t *testing.T) {
	jobs := Jobs("fig7", 8, func(i int) string {
		return []string{"a", "b", "c", "d", "e", "f", "g", "h"}[i]
	}, func(i int) {
		if i == 5 {
			panic("nvm model exploded")
		}
	})
	for _, parallel := range []int{1, 4} {
		err := Run(parallel, jobs)
		if err == nil {
			t.Fatalf("parallel=%d: want error", parallel)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallel=%d: error type %T", parallel, err)
		}
		if pe.Experiment != "fig7" || pe.Point != 5 || pe.Name != "f" {
			t.Fatalf("parallel=%d: wrong identity: %+v", parallel, pe)
		}
		for _, want := range []string{"fig7", "[5]", `"f"`, "nvm model exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("parallel=%d: error %q missing %q", parallel, err, want)
			}
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("parallel=%d: missing stack", parallel)
		}
	}
}

func TestPanicReturnsLowestIndexDeterministically(t *testing.T) {
	// Every job panics; the reported one must always be the first
	// claimed-and-failed with the lowest index, which for Run's ordered
	// claim counter is job 0 in every schedule.
	jobs := Jobs("exp", 32, nil, func(i int) { panic(i) })
	for trial := 0; trial < 20; trial++ {
		err := Run(8, jobs)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("error type %T", err)
		}
		if pe.Point != 0 {
			t.Fatalf("trial %d: reported point %d, want 0", trial, pe.Point)
		}
	}
}

func TestPanicSkipsUnstartedJobs(t *testing.T) {
	var (
		ran    atomic.Int64
		failed atomic.Bool
	)
	jobs := Jobs("exp", 1000, nil, func(i int) {
		ran.Add(1)
		switch i {
		case 0:
			panic("early")
		case 1:
			// Hold the other worker until job 0's panic is recovered,
			// so the check does not depend on how the two workers are
			// scheduled. The deadline turns a runner that never raises
			// the flag into a failure instead of a hang.
			deadline := time.Now().Add(10 * time.Second)
			for !failed.Load() && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		}
	})
	errs := make([]*PanicError, len(jobs))
	runPool(2, jobs, errs, &failed)
	if errs[0] == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("ran all %d jobs despite early panic", n)
	}
	// Only job 1 may have started before the panic was recovered.
	if n := ran.Load(); n > 2 {
		t.Fatalf("ran %d jobs, want at most jobs 0 and 1", n)
	}
}

func TestMustRunPanicsWithIdentity(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("MustRun must re-panic")
		}
		pe, ok := v.(*PanicError)
		if !ok || pe.Experiment != "tab3" {
			t.Fatalf("recovered %#v", v)
		}
	}()
	MustRun(4, Jobs("tab3", 3, nil, func(i int) {
		if i == 2 {
			panic("boom")
		}
	}))
}

func TestDefaultParallelism(t *testing.T) {
	old := Default()
	defer SetDefault(0)
	SetDefault(3)
	if Default() != 3 {
		t.Fatalf("Default()=%d after SetDefault(3)", Default())
	}
	SetDefault(0)
	if Default() < 1 {
		t.Fatalf("Default()=%d, want >= 1", Default())
	}
	_ = old
}

func TestSeedIsDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, exp := range []string{"fig7", "fig8", "fig13"} {
		for p := 0; p < 64; p++ {
			s := Seed(exp, p)
			if s != Seed(exp, p) {
				t.Fatalf("Seed(%q,%d) unstable", exp, p)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("Seed collision: %q[%d] vs %s", exp, p, prev)
			}
			seen[s] = exp
		}
	}
}

// TestRaceStress hammers the pool with many tiny jobs writing adjacent
// slots; under `go test -race` this polices the harness's memory
// discipline (slot-indexed writes, no shared mutable state).
func TestRaceStress(t *testing.T) {
	const n = 5000
	out := make([]uint64, n)
	for round := 0; round < 4; round++ {
		MustRun(16, Jobs("stress", n, nil, func(i int) {
			out[i] = Seed("stress", i)
		}))
	}
	for i, v := range out {
		if v != Seed("stress", i) {
			t.Fatalf("slot %d corrupted", i)
		}
	}
}
