package chainrep

import (
	"fmt"

	"rambda/internal/fault"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// BenchFailoverReplay is the fault-path kernel for the chain: it commits
// n transactions through a 3-replica chain whose middle replica crashes
// early in the run, then rejoins it — redo-log replay plus full history
// catch-up. The catch-up re-ships every committed write set, so the
// kernel scales with n the way a real recovery does.
func BenchFailoverReplay(n int) sim.Time {
	c := &Chain{
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
		c.Nodes = append(c.Nodes, NewNode(space, mem, NodeConfig{
			Name: name, ProcDelay: 500 * sim.Nanosecond, PerTupleDelay: 100 * sim.Nanosecond,
		}, 1<<20, 4096, 4096))
	}
	// Crash r1 almost immediately and keep it down past any plausible run
	// length, so nearly every commit lands on the shortened chain and the
	// final Rejoin replays and catches up the full history.
	c.EnableFaultDetection(fault.New(fault.Plan{Nodes: []fault.Window{
		{Node: "r1", From: 20 * sim.Microsecond, To: sim.Time(n+1) * sim.Time(sim.Millisecond)},
	}}), 25*sim.Microsecond)

	rng := sim.NewRNG(5)
	data := []byte("bench-failover-payload")
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		off := uint32(rng.Intn(1<<18)) &^ 63
		_, done, err := c.RambdaTxInto(now, Tx{Writes: []Tuple{{Offset: off, Data: data}}}, nil)
		if err != nil {
			panic(err)
		}
		now = done
	}
	now = sim.Time(n+1) * sim.Time(sim.Millisecond)
	back, err := c.Rejoin(now, 1)
	if err != nil {
		panic(err)
	}
	return back
}
