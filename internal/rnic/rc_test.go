package rnic

import (
	"bytes"
	"testing"

	"rambda/internal/fault"
	"rambda/internal/interconnect"
	"rambda/internal/sim"
)

// newFaultyPair wires two machines through a duplex whose a->b direction
// follows the given fault rule (the reverse path stays clean unless the
// rule names it).
func newFaultyPair(t *testing.T, plan fault.Plan) (*testMachine, *testMachine, *QP, *QP) {
	t.Helper()
	a, b := newTestMachine("a"), newTestMachine("b")
	d := interconnect.NewDuplex("net", 3.125e9, 2*sim.Microsecond)
	d.AttachFaults(fault.New(plan))
	Connect(a.nic, b.nic, d)
	qa, qb := a.nic.NewQP(), b.nic.NewQP()
	ConnectQP(qa, qb)
	return a, b, qa, qb
}

func TestRetransmitRecoversAndBacksOff(t *testing.T) {
	// 30% per-packet drop on the forward path: the RC transport must
	// retransmit until delivery, inflating the tail by at least one RTO,
	// while the data still lands intact.
	a, b, qa, _ := newFaultyPair(t, fault.Plan{Seed: 41, Links: []fault.LinkRule{
		{Link: "net:a->b", Drop: 0.3},
	}})
	msg := []byte("retransmitted payload")
	a.space.Write(a.dram.Base, msg)

	var worst sim.Duration
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		qa.PostSend(WQE{LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base,
			Len: len(msg), Signaled: true, WRID: uint64(i)})
		res := qa.Doorbell(now)
		if res[0].Status != CQEOK {
			t.Fatalf("write %d failed: %v", i, res[0].Status)
		}
		if lat := sim.Duration(res[0].CQEAt - now); lat > worst {
			worst = lat
		}
		now = res[0].CQEAt
	}
	st := qa.Stats()
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions at 30% drop")
	}
	if st.Timeouts != 0 {
		t.Fatalf("timeouts=%d, retry budget should absorb 30%% loss", st.Timeouts)
	}
	if worst < rto {
		t.Fatalf("worst latency %v, want >= one RTO (%v)", worst, rto)
	}
	got := make([]byte, len(msg))
	b.space.Read(b.dram.Base, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("remote memory = %q after lossy writes", got)
	}
}

func TestRetransmitSequenceDeterministic(t *testing.T) {
	// Same plan seed => byte-identical completion timestamps and
	// counters across two independent universes.
	run := func() ([]sim.Time, QPStats) {
		a, b, qa, _ := newFaultyPair(t, fault.Plan{Seed: 7, Links: []fault.LinkRule{
			{Link: "net:a->b", Drop: 0.3},
		}})
		var times []sim.Time
		now := sim.Time(0)
		for i := 0; i < 80; i++ {
			qa.PostSend(WQE{LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base,
				Len: 256, Signaled: true})
			res := qa.Doorbell(now)
			times = append(times, res[0].CQEAt)
			now = res[0].CQEAt
		}
		return times, qa.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("completion %d diverged: %v vs %v", i, t1[i], t2[i])
		}
	}
	if s1.Retransmits == 0 {
		t.Fatal("plan injected nothing")
	}
}

func TestRetryExhaustionFlushOrdering(t *testing.T) {
	// A black-holed forward path exhausts the retry budget on the first
	// WQE; every later WQE in the same batch flushes. All error CQEs
	// appear, in submission order, regardless of the Signaled flag.
	a, b, qa, _ := newFaultyPair(t, fault.Plan{Seed: 3, Links: []fault.LinkRule{
		{Link: "net:a->b", Drop: 1.0},
	}})
	for i := 0; i < 4; i++ {
		qa.PostSend(WQE{LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base,
			Len: 64, WRID: uint64(100 + i)})
	}
	res := qa.Doorbell(0)
	if len(res) != 4 {
		t.Fatalf("results=%d, want 4 (no WQE may be silently lost)", len(res))
	}
	if res[0].Status != CQERetryExceeded {
		t.Fatalf("first WQE status %v, want RETRY_EXC", res[0].Status)
	}
	for i := 1; i < 4; i++ {
		if res[i].Status != CQEFlushErr {
			t.Fatalf("WQE %d status %v, want WR_FLUSH", i, res[i].Status)
		}
	}
	cqes := qa.CQ().Poll(10)
	if len(cqes) != 4 {
		t.Fatalf("CQEs=%d, want 4", len(cqes))
	}
	for i, c := range cqes {
		if c.WRID != uint64(100+i) {
			t.Fatalf("CQE %d carries WRID %d — flush order must match submission order", i, c.WRID)
		}
	}
	if qa.State() != QPError {
		t.Fatal("QP must be in error state")
	}
	if st := qa.Stats(); st.Timeouts != 1 || st.Retransmits != retryLimit {
		t.Fatalf("stats=%+v, want %d retransmits and 1 timeout", st, retryLimit)
	}

	// Recover re-arms the QP: the next WQE executes (and fails on the
	// still-dead link with a fresh retry error, not a flush).
	qa.Recover()
	if qa.State() != QPReady {
		t.Fatal("Recover must return the QP to ready")
	}
	qa.PostSend(WQE{LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 64, WRID: 200})
	res = qa.Doorbell(res[3].CQEAt)
	if res[0].Status != CQERetryExceeded {
		t.Fatalf("post-recover status %v, want RETRY_EXC (executed, not flushed)", res[0].Status)
	}
}

func TestPSNAdvancesPerPacket(t *testing.T) {
	// PSNs advance by the packet count of each first transmission;
	// retransmissions reuse their PSNs. A clean 10000B write with 28B of
	// transport overhead spans 3 MTU-4096 packets.
	a, b, qa, qb := newPair(t)
	qa.PostSend(WQE{LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 10000})
	qa.Doorbell(0)
	if qa.PSN() != 3 {
		t.Fatalf("sender PSN=%d, want 3", qa.PSN())
	}
	if qb.EPSN() != 3 {
		t.Fatalf("receiver EPSN=%d, want 3 (delivered packets acknowledged)", qb.EPSN())
	}

	// Under loss the delivered stream stays in lockstep: every leg that
	// lands advances EPSN by exactly its packet count.
	ma, mb, qc, qd := newFaultyPair(t, fault.Plan{Seed: 77, Links: []fault.LinkRule{
		{Link: "net:a->b", Drop: 0.15},
	}})
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		qc.PostSend(WQE{LocalAddr: ma.dram.Base, RemoteAddr: mb.dram.Base,
			Len: 5000, Signaled: true})
		res := qc.Doorbell(now)
		if res[0].Status != CQEOK {
			t.Fatalf("write %d: %v", i, res[0].Status)
		}
		now = res[0].CQEAt
	}
	if qc.Stats().Retransmits == 0 {
		t.Fatal("no loss injected")
	}
	if qc.PSN() != qd.EPSN() {
		t.Fatalf("PSN %d != EPSN %d after lossy run — retransmissions must reuse PSNs", qc.PSN(), qd.EPSN())
	}
}

func TestCleanPairUnchangedByFaultMachinery(t *testing.T) {
	// The zero-fault universe must be bit-identical whether or not an
	// (empty-ruled) injector was ever attached: nil fast path.
	run := func(attach bool) sim.Time {
		a, b := newTestMachine("a"), newTestMachine("b")
		d := interconnect.NewDuplex("net", 3.125e9, 2*sim.Microsecond)
		if attach {
			d.AttachFaults(fault.New(fault.Plan{Seed: 1, Links: []fault.LinkRule{
				{Link: "elsewhere", Drop: 0.9},
			}}))
		}
		Connect(a.nic, b.nic, d)
		qa, qb := a.nic.NewQP(), b.nic.NewQP()
		ConnectQP(qa, qb)
		var last sim.Time
		for i := 0; i < 20; i++ {
			qa.PostSend(WQE{LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base,
				Len: 512, Signaled: true})
			last = qa.Doorbell(last)[0].CQEAt
		}
		return last
	}
	if plain, attached := run(false), run(true); plain != attached {
		t.Fatalf("empty plan changed timing: %v vs %v", plain, attached)
	}
}

// TestRCDropAccounting holds the transport's loss ledger to the link's:
// with single-packet signaled WRITEs over a drop-only forward path and
// a clean reverse path, every packet the plan drops is either
// retransmitted or ends a retry budget, so the forward link's drops
// equal Retransmits + Timeouts. A write that exhausts its budget
// recovers the QP and the run goes on, so the all-drop case counts one
// timeout per write.
func TestRCDropAccounting(t *testing.T) {
	const writes = 200
	for _, seed := range []uint64{1, 2, 3, 41} {
		for _, drop := range []float64{0.01, 0.05, 0.3, 1.0} {
			a, b, qa, _ := newFaultyPair(t, fault.Plan{Seed: seed, Links: []fault.LinkRule{
				{Link: "net:a->b", Drop: drop},
			}})
			var failed int64
			now := sim.Time(0)
			for i := 0; i < writes; i++ {
				qa.PostSend(WQE{LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base,
					Len: 64, Signaled: true, WRID: uint64(i)})
				res := qa.Doorbell(now)
				if res[0].Status != CQEOK {
					failed++
					qa.Recover()
				}
				now = res[0].CQEAt
			}
			st := qa.Stats()
			drops := a.nic.tx.Faults().Stats().Drops
			if drops != st.Retransmits+st.Timeouts {
				t.Fatalf("seed %d drop %.2f: link drops %d != retransmits %d + timeouts %d",
					seed, drop, drops, st.Retransmits, st.Timeouts)
			}
			if st.Timeouts != failed || st.Writes+failed != writes {
				t.Fatalf("seed %d drop %.2f: %d writes, %d failed, %d timeouts — issued must equal completed + failed",
					seed, drop, st.Writes, failed, st.Timeouts)
			}
			if drop == 1.0 && (failed != writes || drops != writes*(retryLimit+1)) {
				t.Fatalf("seed %d: all-drop run failed %d writes with %d drops, want %d and %d",
					seed, failed, drops, writes, writes*(retryLimit+1))
			}
		}
	}
}
