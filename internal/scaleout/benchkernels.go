package scaleout

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/fault"
	"rambda/internal/kvs"
	"rambda/internal/sim"
)

// RouteBench is the reusable state of the ShardRouteHotPath micro
// benchmark: an 8-shard ring, a current map with a handful of hot keys
// overridden, and a stale map one version behind, plus the key-format
// scratch. Step is the measured unit; after a warm-up call it performs
// zero allocations (guarded by a testing.AllocsPerRun test).
type RouteBench struct {
	cur   *ShardMap
	stale *ShardMap
	key   []byte
}

// routeBenchKeys is the key universe Step cycles through; a power of
// two so the index mask is free.
const routeBenchKeys = 1024

// NewRouteBench builds the benchmark state.
func NewRouteBench() *RouteBench {
	ring := NewRing(8, 64, 42)
	stale := NewShardMap(ring)
	// Override the first few keys to a fixed shard, so the stale map
	// actually mis-routes part of the key space and the retry branch is
	// exercised, not just predicted away.
	hot := make([]uint64, 0, 8)
	var key []byte
	for i := 0; i < 8; i++ {
		key = appendBenchKey(key[:0], i)
		hot = append(hot, kvs.Hash64(key))
	}
	return &RouteBench{cur: stale.withOverrides(hot, 0), stale: stale}
}

// Step runs one iteration of the routing hot path: format the key,
// hash it, route through the (stale) client map, detect the ownership
// mismatch, and re-route through the current map — the exact
// client-side work of Frontend.do minus the simulated chain.
func (b *RouteBench) Step(i int) uint64 {
	b.key = appendBenchKey(b.key[:0], i%routeBenchKeys)
	h := kvs.Hash64(b.key)
	sid := b.stale.Shard(h)
	if cs := b.cur.Shard(h); cs != sid {
		sid = cs // stale-map retry
	}
	return uint64(sid)
}

// BenchShardRouteHotPath runs the routing hot path n times and returns
// a checksum so the work cannot be optimized away — the micro kernel
// cmd/rambda-bench registers.
func BenchShardRouteHotPath(n int) uint64 {
	b := NewRouteBench()
	var sink uint64
	for i := 0; i < n; i++ {
		sink += b.Step(i)
	}
	return sink
}

// appendBenchKey appends the experiments' key format ("user" + 14-digit
// zero-padded decimal) onto dst without allocating.
func appendBenchKey(dst []byte, i int) []byte {
	dst = append(dst, "user"...)
	var digits [14]byte
	for p := len(digits) - 1; p >= 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, digits[:]...)
}

// BenchMigrationFailoverReplay is the cluster's fault-path kernel: n
// skewed requests drive hot-key migrations while every shard's second
// replica sits in one long crash window, so the first contact splices
// it out (leaving a torn log entry) and all further commits and
// migration installs accumulate in the catch-up history; the final
// rejoin replays each redo log and re-ships that history. Like a real
// recovery — and like chainrep's ChainFailoverReplay kernel one level
// down — the work scales with n.
func BenchMigrationFailoverReplay(n int) sim.Time {
	cfg := DefaultConfig()
	cfg.SlotsPerShard = 2048
	cfg.LogEntries = 512
	cfg.RebalanceEvery = 250
	cfg.ImbalanceThreshold = 1.1
	cfg.HotKeysPerMove = 4
	cfg.CopyChunk = 1

	c := New(cfg)
	const keys = 512
	var key []byte
	val := make([]byte, 46)
	now := sim.Time(0)
	for i := 0; i < keys; i++ {
		key = appendBenchKey(key[:0], i)
		binary.LittleEndian.PutUint64(val, uint64(i))
		now = c.Preload(now, key, val)
	}
	windowEnd := now + sim.Time(n+1)*sim.Time(10*sim.Microsecond)
	wins := make([]fault.Window, 0, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		wins = append(wins, fault.Window{
			Node: fmt.Sprintf("s%dr1", s), Kind: fault.Crash, From: now, To: windowEnd,
		})
	}
	c.EnableFaults(fault.New(fault.Plan{Nodes: wins}))

	fe := c.NewFrontend()
	rng := sim.NewRNG(7)
	seq := uint64(1 << 32)
	for i := 0; i < n; i++ {
		k := rng.Intn(keys)
		if rng.Intn(10) < 7 {
			k = rng.Intn(4) // the skew that triggers migrations
		}
		key = appendBenchKey(key[:0], k)
		if rng.Intn(2) == 0 {
			seq++
			binary.LittleEndian.PutUint64(val, seq)
			now = fe.Put(now, key, val)
		} else {
			_, done := fe.Get(now, key)
			now = done
		}
	}
	now = c.DrainResize(now)
	return c.RejoinAll(now)
}
