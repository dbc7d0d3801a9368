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
			"Kept":    {NsPerOp: 10, AllocsPerOp: 1},
			"Retired": {NsPerOp: 10, AllocsPerOp: 0},
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
		{"retired kernel passes", microResult{NsPerOp: 10, AllocsPerOp: 1}, false},
		{"2x time is not gated", microResult{NsPerOp: 20, AllocsPerOp: 1}, false},
		{"+2 allocs/op fails", microResult{NsPerOp: 10, AllocsPerOp: 3}, true},
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

// The A/B gate flags a kernel only when its paired ratio reaches the
// limit in the median and in all rounds but one.
func TestABRegressed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ratios []float64
		want   bool
	}{
		{"parity passes", []float64{1.02, 0.97, 1.05}, false},
		{"one slow round passes", []float64{1.6, 1.01, 0.99}, false},
		{"slow median, three of five slow rounds passes", []float64{1.3, 1.25, 1.0, 1.1, 1.3}, false},
		{"injected 1.5x fails", []float64{1.48, 1.55, 1.51}, true},
		{"two of three slow rounds fail", []float64{1.3, 0.9, 1.4}, true},
		{"just under the limit passes", []float64{1.24, 1.24, 1.24}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := abRegressed(tc.ratios, 1.25); got != tc.want {
				t.Fatalf("abRegressed(%v) = %v, want %v", tc.ratios, got, tc.want)
			}
		})
	}
}

// checkoutRev checks a revision out of the local repository without
// touching it, and reports a revision git does not know.
func TestCheckoutRev(t *testing.T) {
	root, err := gitOutput("", "rev-parse", "--show-toplevel")
	if err != nil {
		t.Skip("not in a git checkout")
	}
	dst := filepath.Join(t.TempDir(), "src")
	if err := checkoutRev(root, "HEAD", dst); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"go.mod", "cmd/rambda-bench/main.go", "cmd/rambda-figures/main.go"} {
		if _, err := os.Stat(filepath.Join(dst, f)); err != nil {
			t.Fatalf("checked-out tree lacks %s: %v", f, err)
		}
	}
	if err := checkoutRev(root, "no-such-revision", filepath.Join(t.TempDir(), "src")); err == nil {
		t.Fatal("an unknown revision checked out without error")
	}
}
