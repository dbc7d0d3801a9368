package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"rambda/internal/runner"
)

// TestQuickFigureGoldenOutput pins the rendered -quick fig7 and fig8
// tables byte-for-byte against goldens captured before the sim hot-path
// optimization (indexed gap placement, typed heaps, cached
// percentiles). The optimization's contract is that placement decisions
// — and therefore every figure — are unchanged; any diff here means the
// engine's virtual-time behaviour drifted, not just a formatting nit.
// If a future PR changes the *model* deliberately, regenerate with:
//
//	go run ./cmd/rambda-figures -quick -only fig7   (resp. fig8)
//
// and update testdata/.
func TestQuickFigureGoldenOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("quick figure sweeps are too slow under -race; determinism is covered unraced")
	}
	if testing.Short() {
		t.Skip("quick figure sweeps take minutes; skipped with -short")
	}
	specs := StandardSpecs(true)
	for _, id := range []string{"fig7", "fig8"} {
		var spec *Spec
		for i := range specs {
			if specs[i].ID == id {
				spec = &specs[i]
				break
			}
		}
		if spec == nil {
			t.Fatalf("StandardSpecs lost %s", id)
		}
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+"_quick.golden"))
			if err != nil {
				t.Fatal(err)
			}
			runner.MustRun(0, spec.Jobs)
			if got := spec.Table().String(); got != string(want) {
				t.Errorf("%s -quick output diverged from pre-optimization golden.\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}
