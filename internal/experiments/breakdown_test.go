package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestBreakdownTable smoke-tests the per-stage latency table: every
// instrumented path must report rows, each path's shares must sum to
// ~100%, and the fig7 KVS-style path must attribute time to the core
// pipeline stages.
func TestBreakdownTable(t *testing.T) {
	cfg := DefaultBreakdownConfig()
	cfg.Requests = 400
	tab := RunSpec(2, BreakdownSpec(cfg))
	if tab.ID != "breakdown" {
		t.Fatalf("table ID = %q", tab.ID)
	}
	shares := map[string]float64{}
	stages := map[string]map[string]bool{}
	for _, row := range tab.Rows {
		path, stage := row[0], row[1]
		pct, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatalf("share %q: %v", row[4], err)
		}
		shares[path] += pct
		if stages[path] == nil {
			stages[path] = map[string]bool{}
		}
		stages[path][stage] = true
	}
	for _, p := range []string{"fig7/RAMBDA", "fig8/RAMBDA"} {
		if _, ok := shares[p]; !ok {
			t.Fatalf("no rows for path %q", p)
		}
		if s := shares[p]; s < 99 || s > 101 {
			t.Fatalf("%s: stage shares sum to %.1f%%, want ~100%%", p, s)
		}
		for _, st := range []string{"nic", "ring", "memory"} {
			if !stages[p][st] {
				t.Fatalf("%s: no %q stage rows (got %v)", p, st, stages[p])
			}
		}
	}
}
