package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"time"

	"rambda/internal/experiments"
	"rambda/internal/runner"
)

// goldenSpecs are the specs whose quick-scale tables are pinned by
// files in internal/experiments/testdata. They are read at run time,
// so a change to the model updates the goldens, not the benchmark.
var goldenSpecs = []string{"fig7", "fig8"}

// plansPerSpec is how many times a suite repetition plans the specs
// before running each one; the median of all its plannings is its set-up
// time. One planning takes 40–120 µs, and which of the two it mostly
// takes changes over seconds, so the plannings are spread over the run.
const plansPerSpec = 14

// suiteSpecIDs lists the quick suite's specs in print order.
func suiteSpecIDs() []string {
	var ids []string
	for _, s := range experiments.StandardSpecs(true) {
		ids = append(ids, s.ID)
	}
	return ids
}

// runSuite runs every quick-scale spec in print order on one worker,
// renders its table, and compares the pinned tables with their goldens.
// A spec fails when its jobs panic or its table misses the golden.
// A non-nil only restricts the run to those spec IDs (tests).
//
// Like cmd/rambda-bench, each spec starts from a collected heap with
// the RSS high-water mark cleared; the repetition's peak RSS is the
// largest spec's, and its run time leaves out these resets. The
// repetition's wall time covers the specs only.
func runSuite(root string, only []string, tr *tracer) (rep, error) {
	goldens := map[string]string{}
	for _, id := range goldenSpecs {
		data, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", id+"_quick.golden"))
		if err != nil {
			return rep{}, fmt.Errorf("suite-quick: %w", err)
		}
		goldens[id] = string(data)
	}

	var plans []time.Duration
	plan := func() []experiments.Spec {
		var specs []experiments.Spec
		for range plansPerSpec {
			start := cpuTime()
			specs = experiments.StandardSpecs(true)
			plans = append(plans, cpuTime()-start)
		}
		return specs
	}

	var r rep
	h := fnv.New64a()
	for i, s := range plan() {
		if only != nil && !slices.Contains(only, s.ID) {
			continue
		}
		if i > 0 {
			plan()
		}
		r.requests++
		resetPeakRSS()
		w := startWatch()
		tr.begin(specLayer(i))
		err := runner.Run(1, s.Jobs)
		tr.end()
		if err != nil {
			r.runDone(&w)
			fmt.Fprintf(os.Stderr, "suite-quick: %v\n", err)
			r.failed++
			continue
		}
		tr.begin(layerRender)
		out := s.Table().String()
		tr.end()
		r.runDone(&w)
		r.peakRSS = max(r.peakRSS, peakRSS())
		if want, ok := goldens[s.ID]; ok && out != want {
			fmt.Fprintf(os.Stderr, "suite-quick: %s table differs from its golden\n", s.ID)
			r.failed++
		}
		h.Write([]byte(out))
	}
	slices.Sort(plans)
	r.setup = plans[len(plans)/2]
	r.model.Checksum = h.Sum64()
	return r, nil
}
