package experiments

import (
	"testing"

	"rambda/internal/obs"
)

// TestYCSBBackendsBehave pins the sweep's storage claims on single
// points: the update-heavy mix drives real LSM background work, and the
// scan-heavy mix answers through the merged iterator on the LSM while
// the hash backend still completes it via the bucket cursor.
func TestYCSBBackendsBehave(t *testing.T) {
	cfg := DefaultYCSBConfig()
	cfg.Keys = 1 << 12
	cfg.Requests = 3200
	mixA, mixE := ycsbMixes[0], ycsbMixes[3]

	lsmA := ycsbPoint(cfg, mixA, "lsm", 0, obs.NewRegistry())
	if lsmA.Flushes == 0 {
		t.Fatalf("workload A on lsm never flushed: %+v", lsmA)
	}
	if lsmA.Goodput <= 0 || lsmA.P99 < lsmA.P50 {
		t.Fatalf("implausible row %+v", lsmA)
	}

	lsmE := ycsbPoint(cfg, mixE, "lsm", 1, obs.NewRegistry())
	if lsmE.Goodput <= 0 {
		t.Fatalf("workload E on lsm produced no goodput: %+v", lsmE)
	}

	hashE := ycsbPoint(cfg, mixE, "hash", 2, obs.NewRegistry())
	if hashE.Goodput <= 0 {
		t.Fatalf("workload E on hash produced no goodput: %+v", hashE)
	}
	if hashE.Flushes != 0 || hashE.Stalls != 0 {
		t.Fatalf("hash backend reported LSM counters: %+v", hashE)
	}
}
