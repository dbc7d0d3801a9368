package experiments

import (
	"testing"

	"rambda/internal/obs"
)

// TestScaleoutSkewRebalances pins the experiment's headline claim: at
// Zipf 0.99 the cluster migrates hot keys and the end-of-run imbalance
// sits below the pre-migration window's, while every request still
// executes exactly once (the point would panic on a failed request).
func TestScaleoutSkewRebalances(t *testing.T) {
	cfg := DefaultScaleoutConfig()
	cfg.Keys = 1 << 12
	cfg.Requests = 4800
	for i, shards := range []int{4, 8} {
		row := scaleoutPoint(cfg, shards, 0.99, i, obs.NewRegistry())
		if row.Migrations == 0 || row.MovedKeys == 0 {
			t.Fatalf("shards=%d: no migration under zipf 0.99: %+v", shards, row)
		}
		if row.ImbLast >= row.ImbFirst {
			t.Fatalf("shards=%d: imbalance did not drop: first %.2f, last %.2f",
				shards, row.ImbFirst, row.ImbLast)
		}
		if row.StaleRetries == 0 {
			t.Fatalf("shards=%d: map flips but no frontend ever refreshed: %+v", shards, row)
		}
		if row.Goodput <= 0 || row.P99 < row.Avg {
			t.Fatalf("shards=%d: implausible row %+v", shards, row)
		}
	}
}
