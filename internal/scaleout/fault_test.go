package scaleout

import (
	"encoding/binary"
	"fmt"
	"testing"

	"rambda/internal/chainrep"
	"rambda/internal/fault"
	"rambda/internal/kvs"
	"rambda/internal/sim"
)

// These tests drive the cluster's availability layer: shard chains
// crash and rejoin mid-traffic while hot-key migrations are in flight.
// Correctness is model-checked with possible-value sets: a successful
// put pins its key to the written value; a failed put leaves the key
// ambiguous between every value it might hold ("at most once, never
// torn" — the torn-entry convergence of DESIGN.md §11 may still apply
// it); a successful read must observe a member of the set and collapses
// it, because once a value has been served the chain's history is fixed
// for that key. A lost write, a duplicated apply, or a read of
// half-migrated bytes all fail the membership check immediately.

// migSpan is one hot-key migration observed by the recon pass: who
// moved keys where, and the virtual-time interval the move spanned.
type migSpan struct {
	src, dst   int
	start, end sim.Time
}

// faultSkewResult is everything a scenario needs to assert on.
type faultSkewResult struct {
	c        *Cluster
	spans    []migSpan
	possible [][]uint64
	end      sim.Time
}

// runFaultedSkew replays the standard 70%-hot skewed workload against a
// cluster armed with the given crash windows, model-checking every
// read. The request sequence (keys, op mix, values) is a pure function
// of the RNG, independent of request outcomes, so two runs — and in
// particular a fault run and its fault-free recon — are byte-identical
// up to the first open window.
func runFaultedSkew(t *testing.T, windows []fault.Window, reqs int) faultSkewResult {
	t.Helper()
	cfg := testClusterConfig()
	c := New(cfg)
	const keys = 512
	now := preloadN(c, keys)
	c.EnableFaults(fault.New(fault.Plan{Nodes: windows}))

	possible := make([][]uint64, keys)
	for i := range possible {
		possible[i] = []uint64{uint64(i)}
	}

	fe := c.NewFrontend()
	rng := sim.NewRNG(99)
	var key []byte
	val := make([]byte, 46)
	seq := uint64(1 << 32)
	var spans []migSpan
	var cur *migSpan
	for i := 0; i < reqs; i++ {
		k := rng.Intn(keys)
		if rng.Intn(10) < 7 {
			k = rng.Intn(4)
		}
		key = appendBenchKey(key[:0], k)
		if rng.Intn(2) == 0 {
			seq++
			binary.LittleEndian.PutUint64(val, seq)
			done, err := fe.TryPut(now, key, val)
			if err != nil {
				// The write may or may not surface: a crashed replica can
				// hold its torn log entry and rejoin convergence applies
				// it chain-wide.
				possible[k] = append(possible[k], seq)
			} else {
				possible[k] = possible[k][:0]
				possible[k] = append(possible[k], seq)
			}
			now = done
		} else {
			got, done, err := fe.TryGet(now, key)
			if err == nil {
				v := binary.LittleEndian.Uint64(got)
				found := false
				for _, want := range possible[k] {
					if v == want {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("request %d: key %d read %#x, not in possible set %#x", i, k, v, possible[k])
				}
				possible[k] = possible[k][:0]
				possible[k] = append(possible[k], v)
			}
			now = done
		}
		if c.mig != nil && cur == nil {
			cur = &migSpan{src: c.mig.src, dst: c.mig.dst, start: now}
		} else if c.mig == nil && cur != nil {
			cur.end = now
			spans = append(spans, *cur)
			cur = nil
		}
	}
	return faultSkewResult{c: c, spans: spans, possible: possible, end: now}
}

// verifyConverged is the end-of-run acceptance check: every replica
// rejoined and caught up, every key readable with a value from its
// possible set, and every live shard's replicas byte-equal.
func verifyConverged(t *testing.T, r faultSkewResult) {
	t.Helper()
	c := r.c
	now := c.DrainResize(r.end)
	now = c.RejoinAll(now)
	fe := c.NewFrontend()
	var key []byte
	for k := range r.possible {
		key = appendBenchKey(key[:0], k)
		got, done := fe.Get(now, key)
		v := binary.LittleEndian.Uint64(got)
		found := false
		for _, want := range r.possible[k] {
			if v == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("final sweep: key %d reads %#x, not in possible set %#x", k, v, r.possible[k])
		}
		now = done
	}
	n := c.cfg.SlotsPerShard * c.cfg.SlotBytes
	for i := 0; i < c.Shards(); i++ {
		if c.Retired(i) {
			continue
		}
		ch := c.Chain(i)
		for j := 1; j < len(ch.Nodes); j++ {
			if !chainrep.StateEqual(ch.Nodes[0].Store, ch.Nodes[j].Store, n) {
				t.Fatalf("shard %d: replica %d diverged after rejoin", i, j)
			}
		}
	}
}

// reconFirstMigration runs the workload fault-free (armed against an
// empty plan, which moves no timestamp) and returns the first
// migration's span. Fault scenarios place their windows inside it, so
// the crash is guaranteed to race the intended migration phase: the
// fault run is byte-identical to the recon until the window opens.
func reconFirstMigration(t *testing.T, reqs int) migSpan {
	t.Helper()
	r := runFaultedSkew(t, nil, reqs)
	if len(r.spans) == 0 {
		t.Fatal("recon pass saw no migration; cannot place fault windows")
	}
	if st := r.c.Stats(); st.Failed != 0 || st.Aborted != 0 || st.Failovers != 0 {
		t.Fatalf("recon pass took fault paths: %+v", st)
	}
	return r.spans[0]
}

// TestMigrationSurvivesDestinationCrash crashes one destination replica
// from the instant the first migration starts until mid-copy: snapshot
// installs splice the dead replica out (leaving torn log entries), the
// flip races the shortened chain, and the rejoin replays and catches
// the replica up. The move must complete — not abort — and the model
// must hold throughout.
func TestMigrationSurvivesDestinationCrash(t *testing.T) {
	const reqs = 4000
	m0 := reconFirstMigration(t, reqs)
	half := m0.start + (m0.end-m0.start)/2
	if half <= m0.start {
		half = m0.start + sim.Time(sim.Microsecond)
	}
	r := runFaultedSkew(t, []fault.Window{
		{Node: fmt.Sprintf("s%dr1", m0.dst), From: m0.start, To: half},
	}, reqs)
	st := r.c.Stats()
	if st.Migrations == 0 {
		t.Fatalf("no migration completed under destination crash: %+v", st)
	}
	if st.Aborted != 0 {
		t.Fatalf("single-replica destination crash aborted the move: %+v", st)
	}
	if st.Failovers < 1 || st.Rejoins < 1 {
		t.Fatalf("crash was not detected or never healed: %+v", st)
	}
	if st.ReplayedTx < 1 {
		t.Fatalf("crash rejoin replayed no redo-log entries: %+v", st)
	}
	verifyConverged(t, r)
}

// TestMigrationSurvivesSourceCrash crashes the source head for the
// whole first migration: snapshot reads fail over to the surviving
// replica and the move resumes — catch-up log intact — instead of
// restarting or aborting.
func TestMigrationSurvivesSourceCrash(t *testing.T) {
	const reqs = 4000
	m0 := reconFirstMigration(t, reqs)
	r := runFaultedSkew(t, []fault.Window{
		{Node: fmt.Sprintf("s%dr0", m0.src),
			From: m0.start, To: m0.end + sim.Time(50*sim.Microsecond)},
	}, reqs)
	st := r.c.Stats()
	if st.Migrations == 0 {
		t.Fatalf("no migration completed under source head crash: %+v", st)
	}
	if st.Aborted != 0 {
		t.Fatalf("partial source failover aborted the move: %+v", st)
	}
	if st.Failovers < 1 || st.Rejoins < 1 {
		t.Fatalf("head crash was not detected or never healed: %+v", st)
	}
	verifyConverged(t, r)
}

// TestMigrationAbortsWhenDestinationDies crashes both destination
// replicas across the first migration: the first install finds no live
// replica, the move aborts — nothing flipped, the source keeps serving
// — and a later detection window retries it after the chain heals.
func TestMigrationAbortsWhenDestinationDies(t *testing.T) {
	const reqs = 4000
	m0 := reconFirstMigration(t, reqs)
	to := m0.start + sim.Time(120*sim.Microsecond)
	r := runFaultedSkew(t, []fault.Window{
		{Node: fmt.Sprintf("s%dr0", m0.dst), From: m0.start, To: to},
		{Node: fmt.Sprintf("s%dr1", m0.dst), From: m0.start, To: to},
	}, reqs)
	st := r.c.Stats()
	if st.Aborted < 1 {
		t.Fatalf("fully-dead destination did not abort the move: %+v", st)
	}
	if st.Failovers < 2 || st.Rejoins < 2 {
		t.Fatalf("double crash was not detected or never healed: %+v", st)
	}
	verifyConverged(t, r)
}

// TestFaultedClusterDeterministic pins the fault path's determinism:
// the destination-crash scenario, run twice, produces identical stats
// and an identical latency distribution.
func TestFaultedClusterDeterministic(t *testing.T) {
	const reqs = 4000
	m0 := reconFirstMigration(t, reqs)
	win := []fault.Window{
		{Node: fmt.Sprintf("s%dr1", m0.dst),
			From: m0.start, To: m0.end + sim.Time(30*sim.Microsecond)},
	}
	run := func() (Stats, string) {
		r := runFaultedSkew(t, win, reqs)
		return r.c.Stats(), r.c.MergedLatency().String()
	}
	st1, h1 := run()
	st2, h2 := run()
	if fmt.Sprintf("%+v", st1) != fmt.Sprintf("%+v", st2) {
		t.Fatalf("same windows, different stats:\n%+v\n%+v", st1, st2)
	}
	if h1 != h2 {
		t.Fatalf("same windows, different latency distribution:\n%s\n%s", h1, h2)
	}
}

// TestFrontendRetriesExhausted pins the degradation contract: a request
// to a shard whose every replica is crashed burns its attempts —
// exponential backoff, counted timeouts — and fails with
// ErrRetriesExhausted instead of wedging; other shards keep serving,
// and once the window passes the next completion's rejoin scan heals
// the chain and the key is readable again.
func TestFrontendRetriesExhausted(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Shards = 2
	cfg.RebalanceEvery = 0
	c := New(cfg)
	const keys = 192 // sequential bench keys cluster: shard 0's first key is i=100
	t0 := preloadN(c, keys)

	// One key on each shard.
	k0, k1 := -1, -1
	var key []byte
	for i := 0; i < keys && (k0 < 0 || k1 < 0); i++ {
		key = appendBenchKey(key[:0], i)
		if s := c.Map().Shard(kvs.Hash64(key)); s == 0 && k0 < 0 {
			k0 = i
		} else if s == 1 && k1 < 0 {
			k1 = i
		}
	}
	if k0 < 0 || k1 < 0 {
		t.Fatal("preload left a shard empty")
	}

	winEnd := t0 + sim.Time(10*sim.Millisecond)
	c.EnableFaults(fault.New(fault.Plan{Nodes: []fault.Window{
		{Node: "s0r0", From: t0, To: winEnd},
		{Node: "s0r1", From: t0, To: winEnd},
	}}))

	fe := c.NewFrontend()
	issue := t0 + sim.Time(sim.Microsecond)
	_, gaveUp, err := fe.TryGet(issue, appendBenchKey(nil, k0))
	if err != ErrRetriesExhausted {
		t.Fatalf("get against dead shard: err %v, want ErrRetriesExhausted", err)
	}
	if gaveUp <= issue {
		t.Fatalf("gave up at %v, not after issue %v: retries charged no time", gaveUp, issue)
	}
	st := c.Stats()
	if st.Failed != 1 || st.TimeoutRetries != int64(cfg.MaxAttempts) {
		t.Fatalf("failure accounting %+v, want Failed=1 TimeoutRetries=%d", st, cfg.MaxAttempts)
	}
	if st.Failovers != 2 {
		t.Fatalf("both replicas should have been spliced exactly once: %+v", st)
	}

	// The other shard is unaffected.
	if _, _, err := fe.TryGet(gaveUp, appendBenchKey(nil, k1)); err != nil {
		t.Fatalf("healthy shard failed during the window: %v", err)
	}

	// Past the window, a completion on the healthy shard triggers the
	// rejoin scan; the dead shard heals and serves again.
	after := winEnd + sim.Time(sim.Microsecond)
	if _, _, err := fe.TryGet(after, appendBenchKey(nil, k1)); err != nil {
		t.Fatalf("healthy shard failed after the window: %v", err)
	}
	got, _, err := fe.TryGet(after+sim.Time(sim.Millisecond), appendBenchKey(nil, k0))
	if err != nil {
		t.Fatalf("shard never healed: %v", err)
	}
	if v := binary.LittleEndian.Uint64(got); v != uint64(k0) {
		t.Fatalf("healed shard reads %#x, want %#x", v, uint64(k0))
	}
	if st := c.Stats(); st.Rejoins != 2 {
		t.Fatalf("expected both replicas to rejoin once: %+v", st)
	}
}
