package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"rambda/internal/runner"
)

// TestQuickFigureGoldenOutput pins every spec's rendered -quick table
// byte-for-byte, and tab3 once more when it runs alone. fig7 and fig8
// were captured before the sim hot-path optimization (indexed gap
// placement, typed heaps, cached percentiles); fig9, fig10 and tab3
// were captured from fresh per-point store preloads, before points
// shared a pooled store rolled back between them; ycsb, the only spec
// that runs the LSM, was captured while every sstable was backed to its
// full reservation and no run was ever freed; fig5, fig13 and scaleout
// were captured while fig5 ran as a two-partition engine cut, fig13
// streamed its queries through a producer ring and scaleout built its
// shards as engine partitions; fig1, fig12, scalability, chaos,
// breakdown and chaos-scaleout were captured while every fig7 and
// fig13 point built its own list or model in its own machine. The
// contract of these changes is that every figure is unchanged; any
// diff here means the engine's virtual-time behaviour or a point's
// store drifted, not just a formatting nit. If a change alters the
// *model* deliberately, regenerate with:
//
//	go run ./cmd/rambda-figures -quick -only fig7   (resp. fig8, ...)
//
// and update testdata/ (the golden is the output without its final
// blank line).
func TestQuickFigureGoldenOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("quick figure sweeps are too slow under -race; determinism is covered unraced")
	}
	if testing.Short() {
		t.Skip("quick figure sweeps take minutes; skipped with -short")
	}
	specs, err := SelectSpecs(true, "fig1,fig5,fig7,fig8,fig9,fig10,tab3,fig12,fig13,scalability,chaos,breakdown,scaleout,chaos-scaleout,ycsb")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		t.Run(spec.ID, func(t *testing.T) { checkQuickGolden(t, spec) })
	}
	// tab3 names fig8's points, so above it reads fig8's results;
	// selected alone, it simulates them itself.
	alone, err := SelectSpecs(true, "tab3")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("tab3_alone", func(t *testing.T) { checkQuickGolden(t, alone[0]) })
}

// checkQuickGolden runs spec and compares its table with its golden.
func checkQuickGolden(t *testing.T, spec Spec) {
	want, err := os.ReadFile(filepath.Join("testdata", spec.ID+"_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	runner.MustRun(0, spec.Jobs)
	if got := spec.Table().String(); got != string(want) {
		t.Errorf("%s -quick output diverged from pre-optimization golden.\n--- got ---\n%s--- want ---\n%s", spec.ID, got, want)
	}
}
