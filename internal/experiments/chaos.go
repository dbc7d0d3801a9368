package experiments

import (
	"fmt"

	"rambda/internal/chainrep"
	"rambda/internal/coherence"
	"rambda/internal/fault"
	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/rnic"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// The chaos experiment is not a paper figure: it characterizes the
// simulated fabric under the deterministic fault plans of internal/fault.
// Part one sweeps packet-loss rates over an RC QP pair and reports how
// retransmission inflates the tail and erodes goodput; part two crashes
// one replica of a 3-node RAMBDA chain mid-workload, rejoins it, and
// verifies the redo-log replay plus catch-up leave it state-equal with
// the survivors. Both halves run from fixed seeds: a given config
// renders byte-identical tables on every run.

// ChaosConfig scales the robustness experiment.
type ChaosConfig struct {
	// LossRates is the per-packet drop sweep of the QP half.
	LossRates []float64
	// Writes is the number of signaled RDMA writes per loss point.
	Writes int
	// WriteBytes is the payload per write.
	WriteBytes int
	// Txs is the number of chain transactions in the crash half.
	Txs  int
	Seed uint64
}

// DefaultChaosConfig returns the full-size sweep.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		LossRates:  []float64{0, 0.001, 0.01, 0.05},
		Writes:     4000,
		WriteBytes: 1024,
		Txs:        2000,
		Seed:       23,
	}
}

// ChaosLossRow is one point of the loss sweep.
type ChaosLossRow struct {
	LossRate    float64
	AvgLatency  sim.Time
	P99Latency  sim.Time
	Goodput     float64 // payload bytes/sec over the run
	Retransmits int64
}

// ChaosChainRow summarizes the crash/rejoin scenario.
type ChaosChainRow struct {
	Committed  int
	Failovers  int64
	MissedAcks int64
	Rejoins    int64
	ReplayedTx int64
	CaughtUpTx int64
	StateEqual bool
}

// chaosHost builds a minimal RNIC host (the chaos sweep needs the
// transport, not a full core.Machine).
func chaosHost(name string) (*memspace.Space, *rnic.NIC, *memspace.Region) {
	space := memspace.New()
	dram := space.Alloc(name+"-dram", 1<<20, memspace.KindDRAM)
	mem := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM(name+":dram", 6, 120e9, 90*sim.Nanosecond),
		NVM:   memdev.NewNVM(name+":nvm", 6, 39e9, 300*sim.Nanosecond, 3),
		LLC:   memdev.NewLLC(name+":llc", 300e9, 20*sim.Nanosecond),
	}
	host := &rnic.Host{
		Space: space,
		Mem:   mem,
		PCIe:  interconnect.NewPCIe(name+":pcie-in", 16e9, 300*sim.Nanosecond, 400*sim.Nanosecond),
		PCIeR: interconnect.NewPCIe(name+":pcie-out", 16e9, 300*sim.Nanosecond, 400*sim.Nanosecond),
		Coh:   coherence.NewDomain(),
		Agent: coherence.AgentNIC,
	}
	return space, rnic.New(rnic.Config{Name: name}, host), dram
}

// chaosLossPoint drives `cfg.Writes` signaled RC writes across a duplex
// whose forward path drops packets at `loss`, and reports the latency
// distribution, goodput, and retransmission count.
func chaosLossPoint(cfg ChaosConfig, loss float64) ChaosLossRow {
	aSpace, aNIC, aDRAM := chaosHost("a")
	_, bNIC, bDRAM := chaosHost("b")
	d := interconnect.NewDuplex("net", 3.125e9, 2*sim.Microsecond)
	if loss > 0 {
		d.AttachFaults(fault.New(fault.Plan{Seed: cfg.Seed, Links: []fault.LinkRule{
			{Link: "net:a->b", Drop: loss},
		}}))
	}
	rnic.Connect(aNIC, bNIC, d)
	qa, qb := aNIC.NewQP(), bNIC.NewQP()
	rnic.ConnectQP(qa, qb)

	payload := make([]byte, cfg.WriteBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	aSpace.Write(aDRAM.Base, payload)

	hist := sim.NewHistogram(cfg.Writes)
	now := sim.Time(0)
	for i := 0; i < cfg.Writes; i++ {
		qa.PostSend(rnic.WQE{LocalAddr: aDRAM.Base,
			RemoteAddr: bDRAM.Base, Len: cfg.WriteBytes, Signaled: true, WRID: uint64(i)})
		res := qa.Doorbell(now)
		if res[0].Status != rnic.CQEOK {
			panic(fmt.Sprintf("chaos: write %d at loss %.3f failed: %v", i, loss, res[0].Status))
		}
		hist.Record(res[0].CQEAt - now)
		now = res[0].CQEAt
	}
	goodput := 0.0
	if now > 0 {
		goodput = float64(cfg.Writes*cfg.WriteBytes) / (float64(now) / float64(sim.Second))
	}
	return ChaosLossRow{
		LossRate:    loss,
		AvgLatency:  hist.Mean(),
		P99Latency:  hist.P99(),
		Goodput:     goodput,
		Retransmits: qa.Stats().Retransmits,
	}
}

// chaosPayload is the crash scenario's write: one tuple per transaction.
const chaosPayload = "chaos-tx-payload"

// chaosChain builds the 3-replica RAMBDA chain at the testbed parameters
// used throughout the chainrep tests. Each replica's redo log holds 4096
// entries sized to one chaosPayload tuple, more than the scenario writes
// at full scale, so it never wraps.
func chaosChain() *chainrep.Chain {
	c := &chainrep.Chain{
		ClientOneWay: 2 * sim.Microsecond,
		HopDelay:     2500 * sim.Nanosecond,
		WireBPS:      3.125e9,
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		space := memspace.New()
		mem := &memdev.System{
			Space: space,
			DRAM:  memdev.NewDRAM(name+":dram", 6, 120e9, 90*sim.Nanosecond),
			NVM:   memdev.NewNVM(name+":nvm", 6, 39e9, 300*sim.Nanosecond, 3),
			LLC:   memdev.NewLLC(name+":llc", 300e9, 20*sim.Nanosecond),
		}
		c.Nodes = append(c.Nodes, chainrep.NewNode(space, mem, chainrep.NodeConfig{
			Name: name, ProcDelay: 500 * sim.Nanosecond, PerTupleDelay: 100 * sim.Nanosecond,
		}, 1<<20, 4096, chainrep.EntrySize(1, len(chaosPayload))))
	}
	return c
}

// chaosCrashScenario commits cfg.Txs transactions through a chain whose
// middle replica crashes partway in, rejoins it afterwards, and checks
// the replica replayed and caught up to a store state-equal with the
// head.
func chaosCrashScenario(cfg ChaosConfig) ChaosChainRow {
	c := chaosChain()
	// The crash window opens a quarter of the way into the expected run
	// (each tx costs roughly 10 us on this testbed) and outlives it; the
	// rejoin below waits the window out.
	window := fault.Window{
		Node: "r1",
		From: sim.Time(cfg.Txs/4) * sim.Time(10*sim.Microsecond),
		To:   sim.Time(cfg.Txs) * sim.Time(100*sim.Microsecond),
	}
	c.EnableFaultDetection(fault.New(fault.Plan{Seed: cfg.Seed, Nodes: []fault.Window{window}}), 25*sim.Microsecond)

	rng := sim.NewRNG(cfg.Seed + 1)
	data := []byte(chaosPayload)
	now := sim.Time(0)
	committed := 0
	for i := 0; i < cfg.Txs; i++ {
		off := uint32(rng.Intn(1<<18)) &^ 63
		_, done, err := c.RambdaTxInto(now, chainrep.Tx{
			Writes: []chainrep.Tuple{{Offset: off, Data: data}},
		}, nil)
		if err != nil {
			panic(fmt.Sprintf("chaos: tx %d: %v", i, err))
		}
		committed++
		now = done
	}
	if now < window.To {
		now = window.To
	}
	back, err := c.Rejoin(now, 1)
	if err != nil {
		panic(fmt.Sprintf("chaos: rejoin: %v", err))
	}
	_ = back
	st := c.FailoverStats()
	return ChaosChainRow{
		Committed:  committed,
		Failovers:  st.Failovers,
		MissedAcks: st.MissedAcks,
		Rejoins:    st.Rejoins,
		ReplayedTx: st.ReplayedTx,
		CaughtUpTx: st.CaughtUpTx,
		StateEqual: chainrep.StateEqual(c.Nodes[0].Store, c.Nodes[1].Store, 1<<18),
	}
}

// chaosPlan enumerates the sweep: one job per loss point plus the crash
// scenario, each independent.
func chaosPlan(cfg ChaosConfig) (func() ([]ChaosLossRow, ChaosChainRow), []runner.Job) {
	lossRows := make([]ChaosLossRow, len(cfg.LossRates))
	var chainRow ChaosChainRow
	n := len(cfg.LossRates) + 1
	jobs := runner.Jobs("chaos", n,
		func(i int) string {
			if i < len(cfg.LossRates) {
				return fmt.Sprintf("loss=%.3f", cfg.LossRates[i])
			}
			return "chain-crash"
		},
		func(i int) {
			if i < len(cfg.LossRates) {
				lossRows[i] = chaosLossPoint(cfg, cfg.LossRates[i])
			} else {
				chainRow = chaosCrashScenario(cfg)
			}
		})
	return func() ([]ChaosLossRow, ChaosChainRow) { return lossRows, chainRow }, jobs
}

func usStr(t sim.Time) string { return fmt.Sprintf("%.2f us", float64(t)/float64(sim.Microsecond)) }

func chaosRender(lossRows []ChaosLossRow, chainRow ChaosChainRow) *Table {
	t := &Table{
		ID:      "chaos",
		Title:   "Fault injection: RC transport under loss + chain crash/rejoin",
		Columns: []string{"scenario", "avg", "p99", "goodput", "retransmits"},
		Notes: []string{
			fmt.Sprintf("chain: %d committed, failovers=%d missed-acks=%d rejoins=%d replayed=%d caught-up=%d state-equal=%v",
				chainRow.Committed, chainRow.Failovers, chainRow.MissedAcks,
				chainRow.Rejoins, chainRow.ReplayedTx, chainRow.CaughtUpTx, chainRow.StateEqual),
		},
	}
	for _, r := range lossRows {
		t.AddRow(
			fmt.Sprintf("loss=%.3f", r.LossRate),
			usStr(r.AvgLatency),
			usStr(r.P99Latency),
			fmt.Sprintf("%.2f Gbps", r.Goodput*8/1e9),
			fmt.Sprintf("%d", r.Retransmits),
		)
	}
	return t
}

// ChaosSpec exposes the sweep for a shared pool.
func ChaosSpec(cfg ChaosConfig) Spec {
	rows, jobs := chaosPlan(cfg)
	return Spec{ID: "chaos", Jobs: jobs, Table: func() *Table {
		loss, chain := rows()
		return chaosRender(loss, chain)
	}}
}
