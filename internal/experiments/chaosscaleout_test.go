package experiments

import (
	"testing"

	"rambda/internal/obs"
)

// TestChaosScaleoutConvergesUnderCrashes pins the gate's headline
// claim: under a crash storm racing hot-key migration and the elastic
// reshape, every row still converges — replicas rejoined, reshape
// finished (two resizes: one grow, one drain), chains byte-equal — and
// the availability layer visibly worked.
func TestChaosScaleoutConvergesUnderCrashes(t *testing.T) {
	cfg := DefaultChaosScaleoutConfig()
	cfg.Keys = 1 << 11
	cfg.Requests = 2400
	for i, arrival := range []string{"closed", "open"} {
		row := chaosScaleoutPoint(cfg, 4, 4, arrival, i, obs.NewRegistry())
		if !row.StateOK {
			t.Fatalf("%s: replicas diverged after convergence: %+v", arrival, row)
		}
		if row.Resizes != 2 {
			t.Fatalf("%s: reshape did not finish: %+v", arrival, row)
		}
		if row.Failovers == 0 || row.Rejoins == 0 {
			t.Fatalf("%s: crash storm never hit a serving chain: %+v", arrival, row)
		}
		if row.RangeMigs == 0 {
			t.Fatalf("%s: reshape moved nothing: %+v", arrival, row)
		}
		if row.Goodput <= 0 {
			t.Fatalf("%s: implausible goodput: %+v", arrival, row)
		}
	}
}

// TestChaosScaleoutOpenLoopShowsQueueing pins the arrival-process
// satellite: with the same crash schedule density, the open loop — which
// keeps issuing while requests are stuck in failover timeouts — absorbs
// strictly more fault encounters than the self-throttling closed loop,
// and its fault-free row is unaffected (no spurious queueing from the
// arrival process itself).
func TestChaosScaleoutOpenLoopShowsQueueing(t *testing.T) {
	cfg := DefaultChaosScaleoutConfig()
	cfg.Keys = 1 << 11
	cfg.Requests = 2400

	closed := chaosScaleoutPoint(cfg, 4, 4, "closed", 0, obs.NewRegistry())
	open := chaosScaleoutPoint(cfg, 4, 4, "open", 1, obs.NewRegistry())
	if open.Failovers <= closed.Failovers {
		t.Fatalf("open loop hit %d failovers, closed %d; open arrivals should meet more windows",
			open.Failovers, closed.Failovers)
	}

	calm := chaosScaleoutPoint(cfg, 4, 0, "open", 2, obs.NewRegistry())
	if calm.Failovers != 0 || calm.Failed != 0 {
		t.Fatalf("fault-free open row took fault paths: %+v", calm)
	}
	if open.P99 <= calm.P99 {
		t.Fatalf("crash storm did not move the open-loop tail: calm p99 %v, storm p99 %v",
			calm.P99, open.P99)
	}
}
