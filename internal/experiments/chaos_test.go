package experiments

import (
	"testing"

	"rambda/internal/runner"
)

// testChaosConfig is small enough to run under -race in CI.
func testChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Writes = 800
	cfg.Txs = 400
	return cfg
}

func TestChaosLossInflatesTailAndErodesGoodput(t *testing.T) {
	cfg := testChaosConfig()
	rows, chain := runChaos(t, cfg)
	if len(rows) != len(cfg.LossRates) {
		t.Fatalf("rows=%d", len(rows))
	}
	clean := rows[0]
	if clean.Retransmits != 0 {
		t.Fatalf("clean point retransmitted %d times", clean.Retransmits)
	}
	worst := rows[len(rows)-1]
	if worst.Retransmits == 0 {
		t.Fatal("5% loss must drive retransmissions")
	}
	if worst.P99Latency <= clean.P99Latency {
		t.Fatalf("loss must inflate p99: clean=%v lossy=%v", clean.P99Latency, worst.P99Latency)
	}
	if worst.Goodput >= clean.Goodput {
		t.Fatalf("loss must erode goodput: clean=%.0f lossy=%.0f", clean.Goodput, worst.Goodput)
	}

	// The crash half: the chain committed every transaction, spliced the
	// victim out once, and the rejoined replica is state-equal.
	if chain.Committed != cfg.Txs {
		t.Fatalf("committed %d/%d", chain.Committed, cfg.Txs)
	}
	if chain.Failovers != 1 || chain.Rejoins != 1 {
		t.Fatalf("chain row %+v, want one failover and one rejoin", chain)
	}
	if chain.ReplayedTx == 0 || chain.CaughtUpTx == 0 {
		t.Fatalf("rejoin must replay and catch up: %+v", chain)
	}
	if !chain.StateEqual {
		t.Fatal("rejoined replica not state-equal with the head")
	}
}

func TestChaosDeterministicAcrossRuns(t *testing.T) {
	// Fixed seed => byte-identical rendered table on every run.
	cfg := testChaosConfig()
	r1 := RunSpec(0, ChaosSpec(cfg)).String()
	r2 := RunSpec(0, ChaosSpec(cfg)).String()
	if r1 != r2 {
		t.Fatalf("chaos table diverged across runs:\n--- run1 ---\n%s--- run2 ---\n%s", r1, r2)
	}
}

func runChaos(t *testing.T, cfg ChaosConfig) ([]ChaosLossRow, ChaosChainRow) {
	t.Helper()
	rows, jobs := chaosPlan(cfg)
	runner.MustRun(0, jobs)
	return rows()
}
