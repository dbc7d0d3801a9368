package core

import (
	"testing"

	"rambda/internal/hostcpu"
	"rambda/internal/sim"
)

// machinePairRun partitions a client and server machine across the
// network cut and runs n request/response round trips through the
// parallel engine, each side owning its outbound NetLink direction.
// Returns a fold of every completion the client observed plus the
// server's core-busy accumulator, so any divergence in timing, RNG
// streams, or message order across worker counts shows up.
func machinePairRun(t *testing.T, workers, n int) (uint64, sim.Duration) {
	t.Helper()
	sim.SetParallel(workers)
	defer sim.SetParallel(1)

	sm := NewMachine(MachineConfig{Name: "srv"})
	cm := NewMachine(MachineConfig{Name: "cli"})
	d := ConnectMachines(sm, cm)
	la := d.Lookahead()
	if la <= 0 {
		t.Fatalf("Lookahead = %v, want positive", la)
	}
	// The derived bound must be what the wire actually enforces: an
	// empty send from t=0 arrives no earlier than the lookahead.
	if arrive := d.AtoB.Send(0, 0); arrive < la {
		t.Fatalf("Send(0) arrived at %v, before the derived lookahead %v", arrive, la)
	}

	eng := sim.NewEngine(0xC0DE)
	var fold uint64
	sent, recvd := 0, 0
	var toSrv, toCli *sim.Link
	cli := eng.AddPartition(cm.Name, 0, func(p *sim.Partition, _ sim.Time) {
		for _, m := range p.Recv() {
			fold = fold*1099511628211 ^ uint64(m.At) ^ m.Payload
			recvd++
		}
		// Keep one request in flight; think time comes from the
		// partition's own stream.
		for sent < n && sent-recvd < 1 {
			at := sim.Time(0)
			if len(p.Recv()) > 0 {
				at = p.Recv()[len(p.Recv())-1].At
			}
			think := sim.Duration(p.RNG().Uint64n(uint64(sim.Microsecond)))
			bytes := 64 + p.RNG().Intn(1024)
			arrive := d.AtoB.Send(at+think, bytes)
			p.Post(toSrv, sim.Msg{At: arrive, Payload: uint64(bytes)})
			sent++
		}
		p.SetNext(sim.MaxTime)
	})
	srv := eng.AddPartition(sm.Name, sim.MaxTime, func(p *sim.Partition, _ sim.Time) {
		for _, m := range p.Recv() {
			done := sm.CPU.Process(m.At, hostcpu.Work{Cycles: 800})
			arrive := d.BtoA.Send(done, int(m.Payload))
			p.Post(toCli, sim.Msg{At: arrive, Payload: m.Payload ^ p.RNG().Uint64()})
		}
	})
	toSrv = eng.Connect(cli, srv, la)
	toCli = eng.Connect(srv, cli, la)
	eng.Run()

	if recvd != n {
		t.Fatalf("client completed %d of %d round trips", recvd, n)
	}
	return fold, sm.CPU.Cores().NextFree()
}

func TestMachinePairPartitionedDeterministic(t *testing.T) {
	f1, b1 := machinePairRun(t, 1, 120)
	for _, w := range []int{2, 4} {
		fw, bw := machinePairRun(t, w, 120)
		if fw != f1 || bw != b1 {
			t.Fatalf("workers=%d diverged: fold %#x busy %v, want %#x %v", w, fw, bw, f1, b1)
		}
	}
}
