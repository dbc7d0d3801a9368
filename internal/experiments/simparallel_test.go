package experiments

import (
	"testing"

	"rambda/internal/runner"
	"rambda/internal/sim"
)

// TestSimParallelEquivalence is the partition-count analog of the
// golden tests: the rendered -quick tables for a figure driven by the
// partitioned engine and its pipelined streams must be byte-identical
// at every -sim-parallel value. fig7/fig8 cover the KVS request
// pipeline, scaleout covers partitioned shard construction on top of
// it; fig5 (the two-partition engine cut) rides in the same sweep.
func TestSimParallelEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("quick figure sweeps are too slow under -race; the engine's race coverage lives in internal/sim and internal/scaleout")
	}
	if testing.Short() {
		t.Skip("quick figure sweeps take minutes; skipped with -short")
	}
	render := func(id string, workers int) string {
		sim.SetParallel(workers)
		defer sim.SetParallel(1)
		specs := StandardSpecs(true)
		for i := range specs {
			if specs[i].ID == id {
				runner.MustRun(0, specs[i].Jobs)
				return specs[i].Table().String()
			}
		}
		t.Fatalf("StandardSpecs lost %s", id)
		return ""
	}
	for _, id := range []string{"fig5", "fig7", "fig8", "scaleout"} {
		id := id
		t.Run(id, func(t *testing.T) {
			base := render(id, 1)
			for _, w := range []int{2, 4} {
				if got := render(id, w); got != base {
					t.Errorf("%s diverged at -sim-parallel %d.\n--- sim-parallel %d ---\n%s--- sim-parallel 1 ---\n%s", id, w, w, got, base)
				}
			}
		})
	}
}
