package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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

func TestCompareBaseline(t *testing.T) {
	base := report{
		CalibrationNs: 2,
		Micro: map[string]microResult{
			"Kept":    {Normalized: 10, AllocsPerOp: 1},
			"Retired": {Normalized: 10, AllocsPerOp: 0},
		},
	}
	raw, err := json.Marshal(&base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		kept microResult
		fail bool
	}{
		{"retired kernel passes", microResult{Normalized: 10, AllocsPerOp: 1}, false},
		{"1.3x normalized time fails", microResult{Normalized: 13, AllocsPerOp: 1}, true},
		{"+2 allocs/op fails", microResult{Normalized: 10, AllocsPerOp: 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := report{CalibrationNs: 2, Micro: map[string]microResult{"Kept": tc.kept}}
			var out bytes.Buffer
			if got := compareBaseline(&out, &rep, path, 0.25); got != tc.fail {
				t.Fatalf("failed = %v, want %v\n%s", got, tc.fail, out.String())
			}
			if !strings.Contains(out.String(), "Retired") || !strings.Contains(out.String(), "retired, not gated") {
				t.Fatalf("retired kernel not named:\n%s", out.String())
			}
		})
	}
}
