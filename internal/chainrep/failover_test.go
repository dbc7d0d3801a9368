package chainrep

import (
	"encoding/binary"
	"fmt"
	"testing"

	"rambda/internal/fault"
	"rambda/internal/sim"
)

func writeTx(off uint32, data string) Tx {
	return Tx{Writes: []Tuple{{Offset: off, Data: []byte(data)}}}
}

func TestFaultFreeChainUnchangedByDetection(t *testing.T) {
	// Arming the detector against an empty plan must not move a single
	// timestamp.
	tx := Tx{
		Reads:  []ReadOp{{Offset: 512, Len: 8}},
		Writes: []Tuple{{Offset: 0, Data: []byte("parity")}},
	}
	run := func(arm bool) sim.Time {
		c := newChain(3)
		if arm {
			c.EnableFaultDetection(fault.New(fault.Plan{}), 0)
		}
		var done sim.Time
		for i := 0; i < 10; i++ {
			_, d, err := c.RambdaTxInto(done, tx, nil)
			if err != nil {
				t.Fatal(err)
			}
			done = d
		}
		return done
	}
	if plain, armed := run(false), run(true); plain != armed {
		t.Fatalf("empty plan changed chain timing: %v vs %v", plain, armed)
	}
}

func TestMidChainCrashSplicesAndServes(t *testing.T) {
	// Replica r1 crashes mid-run: the chain detects the missed ack,
	// splices r1 out, and keeps committing writes on the survivors.
	c := newChain(3)
	inj := fault.New(fault.Plan{Nodes: []fault.Window{
		{Node: "r1", From: 100 * sim.Microsecond, To: 10 * sim.Millisecond},
	}})
	c.EnableFaultDetection(inj, 30*sim.Microsecond)

	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		_, done, err := c.RambdaTxInto(now, writeTx(uint32(i*64), "live"), nil)
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		now = done
	}
	if c.Alive(1) {
		t.Fatal("crashed replica still in the chain")
	}
	if c.LiveReplicas() != 2 {
		t.Fatalf("live=%d, want 2", c.LiveReplicas())
	}
	st := c.FailoverStats()
	if st.Failovers != 1 || st.MissedAcks == 0 {
		t.Fatalf("stats=%+v", st)
	}
	// Committed data is on both survivors.
	for _, i := range []int{0, 2} {
		got, _ := c.Nodes[i].Store.ReadInto(nil, now, 0, 4)
		if string(got) != "live" {
			t.Fatalf("survivor %d missing committed write: %q", i, got)
		}
	}
}

func TestHeadCrashFailsOverReads(t *testing.T) {
	// The head crashes; committed reads keep working, served by the next
	// live replica.
	c := newChain(3)
	inj := fault.New(fault.Plan{Nodes: []fault.Window{
		{Node: "r0", From: 50 * sim.Microsecond, To: sim.Second},
	}})
	c.EnableFaultDetection(inj, 20*sim.Microsecond)

	// Commit a write while everyone is up.
	_, done, err := c.RambdaTxInto(0, writeTx(0, "committed"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read after the head died: detection costs a timeout, then the new
	// head serves the committed value.
	at := sim.Time(100 * sim.Microsecond)
	_ = done
	data, rdone := c.ReadTx(at, ReadOp{Offset: 0, Len: 9})
	if string(data) != "committed" {
		t.Fatalf("read after head crash = %q", data)
	}
	if rdone < at+sim.Time(c.ackTimeout) {
		t.Fatalf("failover read at %v must include the detection timeout", rdone)
	}
	if c.Alive(0) || !c.Alive(1) {
		t.Fatal("head not spliced out")
	}
	// Writes continue on the shortened chain.
	if _, _, err := c.RambdaTxInto(rdone, writeTx(64, "after"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRejoinReplaysToStateEqual(t *testing.T) {
	// The acceptance scenario: one replica crashes, the chain keeps
	// serving committed reads and writes, and the rejoined replica
	// replays its redo log plus the missed history to a store
	// state-equal with the survivors.
	c := newChain(3)
	const crashFrom, crashTo = 200 * sim.Microsecond, 2 * sim.Millisecond
	inj := fault.New(fault.Plan{Nodes: []fault.Window{
		{Node: "r2", From: crashFrom, To: crashTo},
	}})
	c.EnableFaultDetection(inj, 25*sim.Microsecond)

	// Phase 1: commits with everyone up.
	now := sim.Time(0)
	for i := 0; i < 5; i++ {
		_, done, err := c.RambdaTxInto(now, writeTx(uint32(i*32), "pre--"), nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Phase 2: r2 is dead; the chain detects, splices, keeps committing.
	now = crashFrom + sim.Time(10*sim.Microsecond)
	for i := 0; i < 8; i++ {
		_, done, err := c.RambdaTxInto(now, writeTx(uint32(512+i*32), "down-"), nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if c.Alive(2) {
		t.Fatal("r2 not spliced")
	}
	// Committed reads still served.
	if data, _ := c.ReadTx(now, ReadOp{Offset: 0, Len: 5}); string(data) != "pre--" {
		t.Fatalf("committed read during outage = %q", data)
	}

	// Phase 3: rejoin. The replica waits out its window, replays its own
	// redo log, and catches up on what it missed.
	back, err := c.Rejoin(now, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back < crashTo {
		t.Fatalf("rejoined at %v, before the crash window ended (%v)", back, crashTo)
	}
	st := c.FailoverStats()
	if st.Rejoins != 1 || st.ReplayedTx == 0 || st.CaughtUpTx == 0 {
		t.Fatalf("stats=%+v, want a rejoin with replay and catch-up", st)
	}
	if !c.Alive(2) || c.LiveReplicas() != 3 {
		t.Fatal("replica not back in the chain")
	}
	// State equality across the whole data prefix the test touched.
	if !StateEqual(c.Nodes[0].Store, c.Nodes[2].Store, 1024) {
		t.Fatal("rejoined replica store differs from the live chain")
	}
	// And it participates in new commits again.
	if _, _, err := c.RambdaTxInto(back, writeTx(900, "again"), nil); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Nodes[2].Store.ReadInto(nil, back, 900, 5)
	if string(got) != "again" {
		t.Fatal("rejoined replica missing post-rejoin write")
	}
}

func TestAllReplicasDownReported(t *testing.T) {
	c := newChain(2)
	inj := fault.New(fault.Plan{Nodes: []fault.Window{
		{Node: "r0", From: 0, To: sim.Second},
		{Node: "r1", From: 0, To: sim.Second},
	}})
	c.EnableFaultDetection(inj, 10*sim.Microsecond)
	if _, _, err := c.RambdaTxInto(0, writeTx(0, "x"), nil); err != ErrNoReplicas {
		t.Fatalf("err=%v, want ErrNoReplicas", err)
	}
}

func TestDeterministicChaosSequence(t *testing.T) {
	// Two identical universes with the same fault plan must agree on
	// every timestamp and counter.
	run := func() (sim.Time, FailoverStats) {
		c := newChain(3)
		inj := fault.New(fault.Plan{Seed: 11, Nodes: []fault.Window{
			{Node: "r1", From: 80 * sim.Microsecond, To: 400 * sim.Microsecond},
			{Node: "r2", From: 600 * sim.Microsecond, To: 900 * sim.Microsecond},
		}})
		c.EnableFaultDetection(inj, 20*sim.Microsecond)
		now := sim.Time(0)
		for i := 0; i < 30; i++ {
			_, done, err := c.RambdaTxInto(now, writeTx(uint32(i%7)*64, "det!"), nil)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			if i == 15 {
				if at, err := c.Rejoin(now, 1); err == nil && at > now {
					now = at
				}
			}
		}
		return now, c.FailoverStats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("chaos run diverged: %v/%+v vs %v/%+v", t1, s1, t2, s2)
	}
}

// TestRejoinRacesApplyCommitted interleaves the constructive
// reconfiguration path (ApplyCommitted — the migration install machinery)
// with a crash window and a rejoin: installs flowing while a replica is
// down must splice it out like any replicated write (leaving a torn log
// entry), accumulate in the catch-up history, and be fully recovered by
// the rejoin — after which further installs include the replica again
// and all three stores are byte-equal.
func TestRejoinRacesApplyCommitted(t *testing.T) {
	c := newChain(3)
	win := fault.Window{
		Node: "r1",
		From: 50 * sim.Microsecond, To: 400 * sim.Microsecond,
	}
	c.EnableFaultDetection(fault.New(fault.Plan{Nodes: []fault.Window{win}}), 20*sim.Microsecond)

	now := sim.Time(0)
	// Whole-chain traffic before the window: a mix of client commits and
	// installs.
	for i := 0; i < 3; i++ {
		_, done, err := c.RambdaTxInto(now, writeTx(uint32(i*64), "pre"), nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if now >= win.From {
		t.Fatalf("pre-window traffic ran past the window start: %v", now)
	}
	now = win.From

	// Installs during the window splice r1 out on first contact and keep
	// committing on the shortened chain.
	for i := 0; i < 5; i++ {
		done, err := c.ApplyCommitted(now, []Tuple{{Offset: uint32(512 + i*64), Data: []byte("mig")}})
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
		now = done
	}
	if c.Alive(1) || c.LiveReplicas() != 2 {
		t.Fatal("installs against a downed replica did not splice it out")
	}
	// Client commits racing the same window land in the same history.
	for i := 0; i < 3; i++ {
		_, done, err := c.RambdaTxInto(now, writeTx(uint32(1024+i*64), "mid"), nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}

	// Rejoin waits out the window, replays the torn log entry, and
	// catches up every install and commit that raced the outage.
	back, err := c.Rejoin(now, 1)
	if err != nil {
		t.Fatal(err)
	}
	if back < win.To {
		t.Fatalf("rejoin at %v, before the window closed at %v", back, win.To)
	}
	st := c.FailoverStats()
	if st.Rejoins != 1 || st.Failovers != 1 {
		t.Fatalf("failover accounting: %+v", st)
	}
	if st.ReplayedTx < 1 {
		t.Fatalf("crash rejoin replayed nothing: %+v", st)
	}
	if st.CaughtUpTx < 8 {
		t.Fatalf("caught up %d write sets, want the 5 installs + 3 commits", st.CaughtUpTx)
	}

	// Installs after the rejoin go down the whole chain again.
	for i := 0; i < 5; i++ {
		done, err := c.ApplyCommitted(back, []Tuple{{Offset: uint32(2048 + i*64), Data: []byte("post")}})
		if err != nil {
			t.Fatalf("post-rejoin install %d: %v", i, err)
		}
		back = done
	}
	const n = 4096
	if !StateEqual(c.Nodes[0].Store, c.Nodes[1].Store, n) ||
		!StateEqual(c.Nodes[0].Store, c.Nodes[2].Store, n) {
		t.Fatal("replicas diverged after rejoin raced ApplyCommitted")
	}
}

// TestSoakHistoryBounded commits 40 000 write sets through a 3-replica
// chain whose replicas crash in turn, one outage per cycle of
// 200 writes, and rejoins each after its window. The catch-up history
// must hold only what a spliced-out replica has yet to apply: nothing
// while the whole chain is live, at most one outage's writes, and a
// buffer that stops growing after the first cycles. Every replica must
// end state-equal.
func TestSoakHistoryBounded(t *testing.T) {
	const (
		cycles   = 200
		perCycle = 200
		spacing  = 20 * sim.Microsecond // between write issues
		cycle    = perCycle * spacing
		region   = 64 << 10
	)
	var wins []fault.Window
	for k := 0; k < cycles; k++ {
		from := sim.Time(k)*cycle + cycle/4
		wins = append(wins, fault.Window{Node: fmt.Sprintf("r%d", k%3), From: from, To: from + cycle/4})
	}
	c := newChain(3)
	c.EnableFaultDetection(fault.New(fault.Plan{Nodes: wins}), 20*sim.Microsecond)

	rng := sim.NewRNG(3)
	val := make([]byte, 8)
	now := sim.Time(0)
	maxSets, warmCap := 0, 0
	for k := 0; k < cycles; k++ {
		if k == 10 {
			warmCap = cap(c.history)
		}
		outageEnd := wins[k].To
		for j := 0; j < perCycle; j++ {
			now = max(now, sim.Time(k)*cycle+sim.Time(j)*spacing)
			down := k % 3
			if !c.Alive(down) && now >= outageEnd {
				back, err := c.Rejoin(now, down)
				if err != nil {
					t.Fatal(err)
				}
				now = back
			}
			binary.LittleEndian.PutUint64(val, uint64(k*perCycle+j))
			off := uint32(rng.Intn(region)) &^ 7
			_, done, err := c.RambdaTxInto(now, Tx{Writes: []Tuple{{Offset: off, Data: val}}}, nil)
			if err != nil {
				t.Fatalf("cycle %d write %d: %v", k, j, err)
			}
			now = done
			maxSets = max(maxSets, len(c.historyEnd))
			if c.LiveReplicas() == 3 && (len(c.historyEnd) != 0 || len(c.history) != 0) {
				t.Fatalf("cycle %d write %d: whole chain live but the history holds %d sets (%d bytes)",
					k, j, len(c.historyEnd), len(c.history))
			}
		}
	}
	t.Logf("history peaked at %d sets; buffer capacity %d bytes", maxSets, cap(c.history))
	st := c.FailoverStats()
	if st.Rejoins != cycles || st.Failovers != cycles || st.ReplayedTx == 0 {
		t.Fatalf("stats %+v: want %d failovers and rejoins, rejoins replaying", st, cycles)
	}
	if maxSets == 0 || maxSets > perCycle/4+1 {
		t.Fatalf("history peaked at %d sets, want 1..%d (one outage's writes)", maxSets, perCycle/4+1)
	}
	if cap(c.history) != warmCap {
		t.Fatalf("history buffer grew from %d to %d bytes after warmup", warmCap, cap(c.history))
	}
	for i := 1; i < 3; i++ {
		if !StateEqual(c.Nodes[0].Store, c.Nodes[i].Store, region) {
			t.Fatalf("replica %d differs from the head after %d outages", i, cycles)
		}
	}
}
