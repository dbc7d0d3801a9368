package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rambda/internal/runner"
)

// TestSharedInputsBuildOnce asks for one key from every job of a spec's
// worth of points: at 1 and 4 workers the input is built once and every
// ask gets that one build. A key with asks still to come keeps its
// input; once every key's last planned ask is made, nothing is held.
func TestSharedInputsBuildOnce(t *testing.T) {
	const asks = 12
	for _, workers := range []int{1, 4} {
		var builds atomic.Int32
		in := newSharedInputs("test input", func(k int) *int {
			builds.Add(1)
			return &k
		})
		for range asks {
			in.plan(7)
		}
		in.plan(8)
		got := make([]*int, asks)
		jobs := runner.Jobs("shared", asks, func(i int) string { return fmt.Sprint(i) },
			func(i int) { got[i] = in.ask(7) })
		if err := runner.Run(workers, jobs); err != nil {
			t.Fatal(err)
		}
		if n := builds.Load(); n != 1 {
			t.Fatalf("%d workers: %d builds for %d asks, want 1", workers, n, asks)
		}
		for i, v := range got {
			if v != got[0] || *v != 7 {
				t.Fatalf("%d workers: ask %d got a different input", workers, i)
			}
		}
		if len(in.built) != 0 || len(in.left) != 1 {
			t.Fatalf("%d workers: after key 7's last ask, %d inputs held and %d keys planned, want 0 and 1",
				workers, len(in.built), len(in.left))
		}
		if *in.ask(8) != 8 || builds.Load() != 2 {
			t.Fatalf("%d workers: key 8 did not get a build of its own", workers)
		}
		if len(in.built) != 0 || len(in.left) != 0 {
			t.Fatalf("%d workers: inputs held after the last planned ask", workers)
		}
	}
}

// TestSharedInputsFailedBuild checks that a build's panic reaches every
// ask for its key, one building, one waiting on it and one after the
// failure, and that each panic names the input and its key.
func TestSharedInputsFailedBuild(t *testing.T) {
	in := newSharedInputs("test input", func(k int) int { panic("no memory for it") })
	for range 3 {
		in.plan(7)
	}
	panics := make([]string, 3)
	ask := func(i int) {
		defer func() { panics[i] = fmt.Sprint(recover()) }()
		in.ask(7)
	}
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() { defer wg.Done(); ask(i) }()
	}
	wg.Wait()
	ask(2) // after the failure
	for i, v := range panics {
		if !strings.Contains(v, "experiments: test input 7: no memory for it") {
			t.Errorf("ask %d: panic %q does not name the failed input", i, v)
		}
	}
}
