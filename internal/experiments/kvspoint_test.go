package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"rambda/internal/runner"
)

// TestKVSPointCensus enumerates the four KVS plans at the default scale
// without simulating: 51 rows ask for 44 distinct points, and the 7
// repeats are exactly the rows that name an earlier figure's point.
func TestKVSPointCensus(t *testing.T) {
	first := map[kvsPoint]string{}
	var asks int
	var repeats []string
	for _, pl := range kvsPlans(DefaultKVSConfig()) {
		for i, p := range pl.points {
			asks++
			row := pl.table.ID + " " + pl.label(i)
			if earlier, ok := first[p]; ok {
				repeats = append(repeats, row+" = "+earlier)
			} else {
				first[p] = row
			}
		}
	}
	if asks != 51 || len(first) != 44 {
		t.Fatalf("%d asks for %d distinct points, want 51 for 44", asks, len(first))
	}
	want := []string{
		"fig10 CPU/batch=32 = fig8 CPU/zipf/get",
		"fig10 SmartNIC/batch=1 = fig9 SmartNIC/zipf",
		"fig10 SmartNIC/batch=32 = fig8 SmartNIC/zipf/get",
		"fig10 RAMBDA/batch=32 = fig8 RAMBDA/zipf/get",
		"tab3 CPU = fig8 CPU/uniform/get",
		"tab3 SmartNIC = fig8 SmartNIC/uniform/get",
		"tab3 RAMBDA = fig8 RAMBDA/uniform/get",
	}
	if !slices.Equal(repeats, want) {
		t.Fatalf("repeats:\n%s\nwant:\n%s", strings.Join(repeats, "\n"), strings.Join(want, "\n"))
	}
}

// TestKVSSpecsShareResults runs the four KVS specs in one flat pool,
// where they share each repeated point's result, and checks that every
// table equals the one its spec renders when run alone.
func TestKVSSpecsShareResults(t *testing.T) {
	cfg := testKVSConfig()
	cfg.Keys = 1 << 12
	cfg.Requests = 600
	var alone []string
	for i := range KVSSpecs(cfg) {
		alone = append(alone, RunSpec(1, KVSSpecs(cfg)[i]).String())
	}
	for _, workers := range []int{1, 4} {
		specs := KVSSpecs(cfg)
		var jobs []runner.Job
		for _, s := range specs {
			jobs = append(jobs, s.Jobs...)
		}
		if err := runner.Run(workers, jobs); err != nil {
			t.Fatal(err)
		}
		for i, s := range specs {
			if got := s.Table().String(); got != alone[i] {
				t.Errorf("%s at %d workers differs from its run alone:\n--- shared ---\n%s--- alone ---\n%s", s.ID, workers, got, alone[i])
			}
		}
	}

	// Two concurrent asks, one computing and one waiting on it, and one
	// after the computation panicked: each panics naming the point.
	t.Run("failed point", func(t *testing.T) {
		memo := newKVSMemo()
		pool := newStorePool(3)
		bad := kvsPoint{sys: "no-such-system", window: 1}
		panics := make([]string, 3)
		ask := func(i int) {
			defer func() { panics[i] = fmt.Sprint(recover()) }()
			memo.ask(cfg, pool, bad)
		}
		var wg sync.WaitGroup
		for i := range 2 {
			wg.Add(1)
			go func() { defer wg.Done(); ask(i) }()
		}
		wg.Wait()
		ask(2) // after the failure
		for i, v := range panics {
			if !strings.Contains(v, "KVS point {sys:no-such-system") {
				t.Errorf("ask %d: panic %q does not name the failed point", i, v)
			}
		}
	})
}
