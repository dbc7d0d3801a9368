package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every committed BENCH file must stay readable as a -baseline, BENCH_2's
// retired seed_ns_per_op/speedup_vs_seed fields included.
func TestCommittedBenchFilesDecode(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH files found (%v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if rep.CalibrationNs <= 0 || len(rep.Micro) == 0 {
			t.Fatalf("%s: decoded without calibration or kernels", p)
		}
	}
}
