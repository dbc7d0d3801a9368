package scaleout

import (
	"encoding/binary"
	"testing"

	"rambda/internal/kvs"
	"rambda/internal/sim"
)

// fullShardCluster builds a two-shard cluster whose shard 1 holds
// SlotsPerShard keys — every slot it has — and whose shard 0 holds
// srcKeys keys, each valued with its index. It returns the cluster,
// shard 0's key indices and the preload's completion time.
func fullShardCluster(t *testing.T, cfg Config, srcKeys int) (*Cluster, []int, sim.Time) {
	t.Helper()
	cfg.Shards = 2
	c := New(cfg)
	var key []byte
	val := make([]byte, 46)
	now := sim.Time(0)
	var src []int
	full := 0
	for i := 0; full < cfg.SlotsPerShard || len(src) < srcKeys; i++ {
		key = appendBenchKey(key[:0], i)
		if c.Map().Shard(kvs.Hash64(key)) == 0 {
			if len(src) == srcKeys {
				continue
			}
			src = append(src, i)
		} else {
			if full == cfg.SlotsPerShard {
				continue
			}
			full++
		}
		binary.LittleEndian.PutUint64(val, uint64(i))
		now = c.Preload(now, key, val)
	}
	return c, src, now
}

// getAll reads every key in keys through fe and checks each value.
func getAll(t *testing.T, fe *Frontend, now sim.Time, keys []int) sim.Time {
	t.Helper()
	var key []byte
	for _, k := range keys {
		key = appendBenchKey(key[:0], k)
		got, done := fe.Get(now, key)
		if v := binary.LittleEndian.Uint64(got); v != uint64(k) {
			t.Fatalf("key %d read %#x, want %#x", k, v, k)
		}
		now = done
	}
	return now
}

// TestMigrationToFullShardAborts drives two hot keys on shard 0 so
// every detection window starts a hot-key move to shard 1, whose every
// slot is taken. The first install finds no free slot: the move must
// abort and be counted, once per window, with nothing flipped, no
// partial copy left in the destination's index, and the source still
// serving every key.
func TestMigrationToFullShardAborts(t *testing.T) {
	cfg := testClusterConfig()
	cfg.SlotsPerShard = 32
	c, src, now := fullShardCluster(t, cfg, 8)

	const reqs = 2000
	fe := c.NewFrontend()
	rng := sim.NewRNG(7)
	for i := 0; i < reqs; i++ {
		now = getAll(t, fe, now, src[rng.Intn(2):][:1])
	}
	st := c.Stats()
	// The check closing window w starts a move the next request aborts;
	// the last window's move has no next request.
	if want := int64(reqs/cfg.RebalanceEvery - 1); st.Aborted != want {
		t.Fatalf("aborted %d moves, want one per window but the last (%d): %+v", st.Aborted, want, st)
	}
	if st.Migrations != 0 || st.MapVersion != 1 || st.Overrides != 0 {
		t.Fatalf("a move to a full shard flipped the map: %+v", st)
	}
	if n := len(c.shards[1].index); n != cfg.SlotsPerShard {
		t.Fatalf("destination index holds %d keys, want its %d own", n, cfg.SlotsPerShard)
	}
	getAll(t, c.NewFrontend(), now, src)
}

// TestElasticDrainToFullShardAborts removes shard 0 of a cluster whose
// only survivor is full: every range chunk must abort at its first
// install, back off and retry, while shard 0 keeps owning and serving
// its keys and the resize stays in flight.
func TestElasticDrainToFullShardAborts(t *testing.T) {
	cfg := testClusterConfig()
	cfg.SlotsPerShard = 32
	cfg.RebalanceEvery = 0 // isolate the drain from hot-key moves
	c, src, now := fullShardCluster(t, cfg, 8)

	if err := c.RemoveShard(now, 0); err != nil {
		t.Fatal(err)
	}
	fe := c.NewFrontend()
	for i := 0; i < 50; i++ {
		now = getAll(t, fe, now, src)
	}
	st := c.Stats()
	if st.Aborted < 2 {
		t.Fatalf("drain to a full shard aborted %d chunks, want retries that abort: %+v", st.Aborted, st)
	}
	if st.RangeMigrations != 0 || st.Resizes != 0 || !c.ResizeActive() || c.Retired(0) {
		t.Fatalf("drain to a full shard made progress: %+v", st)
	}
}
