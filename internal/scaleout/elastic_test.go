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

// TestRingIDsArcStability pins the consistent-hashing contract the
// elastic resize leans on: growing or shrinking the shard set moves
// only the arcs that change hands — every key not owned by the added
// or removed shard keeps its home.
func TestRingIDsArcStability(t *testing.T) {
	old := NewRing(4, 64, 7)
	shrunk := NewRingIDs([]int{0, 1, 3}, 64, 7)
	grown := NewRingIDs([]int{0, 1, 2, 3, 4}, 64, 7)
	moved := 0
	var key []byte
	for i := 0; i < 20000; i++ {
		key = appendBenchKey(key[:0], i)
		h := kvs.Hash64(key)
		o := old.Lookup(h)
		if o != 2 && shrunk.Lookup(h) != o {
			t.Fatalf("key %d moved between surviving shards on removal: %d -> %d", i, o, shrunk.Lookup(h))
		}
		if g := grown.Lookup(h); g != o {
			if g != 4 {
				t.Fatalf("key %d moved between existing shards on growth: %d -> %d", i, o, g)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("growth moved no keys; the new shard owns nothing")
	}
	if moved > 20000/2 {
		t.Fatalf("growth moved %d of 20000 keys; expected roughly 1/5", moved)
	}
}

// TestElasticAddRemoveRoundTrip grows a 4-shard cluster to 5 mid
// -traffic, then drains and retires shard 0 — both as chunked range
// migrations racing the foreground workload — and checks that no key
// is lost, the drained shard is empty, the override set collapses to
// nothing once the target ring lands, and a frontend that slept
// through the whole reshape refreshes in one deep-stale hop.
func TestElasticAddRemoveRoundTrip(t *testing.T) {
	cfg := testClusterConfig()
	cfg.RebalanceEvery = 0 // isolate elasticity from hot-key moves
	cfg.RangeChunkKeys = 64
	c := New(cfg)
	const keys = 512
	now := preloadN(c, keys)

	model := make([]uint64, keys)
	for i := range model {
		model[i] = uint64(i)
	}

	fe := c.NewFrontend()
	stale := c.NewFrontend() // sleeps through the reshape
	rng := sim.NewRNG(123)
	var key []byte
	val := make([]byte, 46)
	seq := uint64(1 << 40)
	added, removed := false, false
	for i := 0; i < 2400; i++ {
		k := rng.Intn(keys)
		key = appendBenchKey(key[:0], k)
		if rng.Intn(2) == 0 {
			seq++
			binary.LittleEndian.PutUint64(val, seq)
			now = fe.Put(now, key, val)
			model[k] = seq
		} else {
			got, done := fe.Get(now, key)
			if v := binary.LittleEndian.Uint64(got); v != model[k] {
				t.Fatalf("request %d: key %d read %#x, want %#x", i, k, v, model[k])
			}
			now = done
		}
		if i == 400 {
			id, err := c.AddShard(now)
			if err != nil || id != 4 {
				t.Fatalf("AddShard: id %d err %v", id, err)
			}
			added = true
		}
		if i >= 1200 && !removed {
			// The add's chunk sequence may still be draining; keep asking.
			if err := c.RemoveShard(now, 0); err == nil {
				removed = true
			} else if err != ErrResizeActive {
				t.Fatalf("RemoveShard: %v", err)
			}
		}
	}
	if !added || !removed {
		t.Fatalf("reshape never accepted: added=%v removed=%v", added, removed)
	}
	now = c.DrainResize(now)

	st := c.Stats()
	if st.Resizes != 2 {
		t.Fatalf("completed %d resizes, want 2: %+v", st.Resizes, st)
	}
	if st.RangeMigrations == 0 || st.RangeKeys == 0 {
		t.Fatalf("reshape moved nothing: %+v", st)
	}
	if !c.Retired(0) || c.LiveShards() != 4 || c.ResizeActive() {
		t.Fatalf("retire state wrong: retired0=%v live=%d active=%v",
			c.Retired(0), c.LiveShards(), c.ResizeActive())
	}
	if len(c.shards[0].index) != 0 {
		t.Fatalf("drained shard still holds %d keys", len(c.shards[0].index))
	}
	if st.Overrides != 0 {
		t.Fatalf("override set did not collapse after the target ring landed: %+v", st)
	}
	// Every flipped chunk published a version; both finishes published
	// one more.
	if st.MapVersion != 1+uint64(st.RangeMigrations)+uint64(st.Resizes) {
		t.Fatalf("map version %d after %d chunks + %d resizes",
			st.MapVersion, st.RangeMigrations, st.Resizes)
	}

	// Full sweep through a fresh frontend: nothing lost, nothing routed
	// to the retired shard.
	for k := 0; k < keys; k++ {
		key = appendBenchKey(key[:0], k)
		if owner := c.Map().Shard(kvs.Hash64(key)); owner == 0 {
			t.Fatalf("key %d still routes to the retired shard", k)
		}
		got, done := fe.Get(now, key)
		if v := binary.LittleEndian.Uint64(got); v != model[k] {
			t.Fatalf("final sweep: key %d reads %#x, want %#x", k, v, model[k])
		}
		now = done
	}

	// The stale frontend is many versions behind — one reject pays one
	// refresh that jumps all of them.
	before := c.Stats()
	for k := 0; k < keys; k++ {
		key = appendBenchKey(key[:0], k)
		got, done := stale.Get(now, key)
		if v := binary.LittleEndian.Uint64(got); v != model[k] {
			t.Fatalf("stale sweep: key %d reads %#x, want %#x", k, v, model[k])
		}
		now = done
	}
	after := c.Stats()
	if after.DeepStale <= before.DeepStale {
		t.Fatalf("stale frontend crossed %d versions without a deep-stale refresh: %+v",
			after.MapVersion-1, after)
	}
	if stale.MapVersion() != after.MapVersion {
		t.Fatalf("stale frontend at version %d, want %d", stale.MapVersion(), after.MapVersion)
	}

	n := cfg.SlotsPerShard * cfg.SlotBytes
	for i := 0; i < c.Shards(); i++ {
		if c.Retired(i) {
			continue
		}
		ch := c.Chain(i)
		if !chainrep.StateEqual(ch.Nodes[0].Store, ch.Nodes[1].Store, n) {
			t.Fatalf("shard %d: replicas diverged after reshape", i)
		}
	}
}

// TestElasticResizeUnderFaults reruns the add-then-drain reshape with
// crash windows on top: both replicas of the freshly-added shard die
// just as the handoff to it begins (chunks abort, back off, and retry
// once the chain heals), and a mid-drain replica crash exercises
// splice/rejoin inside the range-migration machinery. The reshape must
// still converge to the same end state with no key lost.
func TestElasticResizeUnderFaults(t *testing.T) {
	run := func(windows func(tAdd sim.Time) []fault.Window) (*Cluster, Stats) {
		cfg := testClusterConfig()
		cfg.RebalanceEvery = 0
		cfg.RangeChunkKeys = 64
		c := New(cfg)
		const keys = 512
		now := preloadN(c, keys)

		// Recon determined tAdd == the request-400 completion; windows
		// are placed relative to it, and the run is byte-identical to
		// the fault-free one until the first window opens (at tAdd).
		var planned bool

		model := make([][]uint64, keys)
		for i := range model {
			model[i] = []uint64{uint64(i)}
		}
		fe := c.NewFrontend()
		rng := sim.NewRNG(123)
		var key []byte
		val := make([]byte, 46)
		seq := uint64(1 << 40)
		removed := false
		for i := 0; i < 2400; i++ {
			k := rng.Intn(keys)
			key = appendBenchKey(key[:0], k)
			if rng.Intn(2) == 0 {
				seq++
				binary.LittleEndian.PutUint64(val, seq)
				done, err := fe.TryPut(now, key, val)
				if err != nil {
					model[k] = append(model[k], seq)
				} else {
					model[k] = []uint64{seq}
				}
				now = done
			} else {
				got, done, err := fe.TryGet(now, key)
				if err == nil {
					v := binary.LittleEndian.Uint64(got)
					ok := false
					for _, want := range model[k] {
						if v == want {
							ok = true
						}
					}
					if !ok {
						t.Fatalf("request %d: key %d read %#x, not in %#x", i, k, v, model[k])
					}
					model[k] = []uint64{v}
				}
				now = done
			}
			if i == 400 {
				if !planned && windows != nil {
					c.EnableFaults(fault.New(fault.Plan{Nodes: windows(now)}))
					planned = true
				}
				if id, err := c.AddShard(now); err != nil || id != 4 {
					t.Fatalf("AddShard: id %d err %v", id, err)
				}
			}
			if i >= 1200 && !removed {
				if err := c.RemoveShard(now, 0); err == nil {
					removed = true
				} else if err != ErrResizeActive {
					t.Fatalf("RemoveShard: %v", err)
				}
			}
		}
		if !removed {
			t.Fatal("drain never accepted")
		}
		now = c.DrainResize(now)
		now = c.RejoinAll(now)

		// Converged: sweep every key and check replica agreement.
		for k := 0; k < keys; k++ {
			key = appendBenchKey(key[:0], k)
			got, done := fe.Get(now, key)
			v := binary.LittleEndian.Uint64(got)
			ok := false
			for _, want := range model[k] {
				if v == want {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("final sweep: key %d reads %#x, not in %#x", k, v, model[k])
			}
			now = done
		}
		n := cfg.SlotsPerShard * cfg.SlotBytes
		for i := 0; i < c.Shards(); i++ {
			if c.Retired(i) {
				continue
			}
			ch := c.Chain(i)
			if !chainrep.StateEqual(ch.Nodes[0].Store, ch.Nodes[1].Store, n) {
				t.Fatalf("shard %d: replicas diverged", i)
			}
		}
		return c, c.Stats()
	}

	c, st := run(func(tAdd sim.Time) []fault.Window {
		return []fault.Window{
			// The new shard dies whole just as chunks start landing on it.
			{Node: "s4r0", From: tAdd, To: tAdd + sim.Time(150*sim.Microsecond)},
			{Node: "s4r1", From: tAdd, To: tAdd + sim.Time(150*sim.Microsecond)},
			// A single-replica crash later in the reshape.
			{Node: "s1r0",
				From: tAdd + sim.Time(300*sim.Microsecond), To: tAdd + sim.Time(500*sim.Microsecond)},
		}
	})
	if st.Aborted < 1 {
		t.Fatalf("fully-dead destination aborted no chunk: %+v", st)
	}
	if st.Failovers < 2 || st.Rejoins < 2 {
		t.Fatalf("crashes were not detected or never healed: %+v", st)
	}
	if st.Resizes != 2 || !c.Retired(0) || c.LiveShards() != 4 {
		t.Fatalf("reshape did not converge: %+v retired0=%v live=%d",
			st, c.Retired(0), c.LiveShards())
	}
	if st.Overrides != 0 {
		t.Fatalf("override set did not collapse: %+v", st)
	}

	// Determinism of the faulted reshape.
	_, st2 := run(func(tAdd sim.Time) []fault.Window {
		return []fault.Window{
			{Node: "s4r0", From: tAdd, To: tAdd + sim.Time(150*sim.Microsecond)},
			{Node: "s4r1", From: tAdd, To: tAdd + sim.Time(150*sim.Microsecond)},
			{Node: "s1r0",
				From: tAdd + sim.Time(300*sim.Microsecond), To: tAdd + sim.Time(500*sim.Microsecond)},
		}
	})
	if fmt.Sprintf("%+v", st) != fmt.Sprintf("%+v", st2) {
		t.Fatalf("same windows, different reshape:\n%+v\n%+v", st, st2)
	}
}
