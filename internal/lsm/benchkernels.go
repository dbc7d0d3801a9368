package lsm

import (
	"encoding/binary"

	"rambda/internal/kvs"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// This file holds the storage-engine micro kernels cmd/rambda-bench
// times: the point-read hot path across the memtable and sstable tiers,
// the merged-iterator range scan, and the YCSB-A write path through
// flush and compaction. All run on a prebuilt tree with flushed runs,
// so the measured work is the real multi-level probe/merge, not
// memtable-only shortcuts.

// benchKeys is the key universe of the kernel tree; enough to force
// multiple flushes and one compaction cascade under benchLSMConfig.
const benchKeys = 4096

// benchLSMConfig keeps sstables small so the prebuilt tree has both L0
// runs and deeper levels.
func benchLSMConfig() Config {
	return Config{
		MemtableBytes: 16 << 10,
		L0Runs:        4,
		SSTableBytes:  256 << 10,
		WALBytes:      64 << 10,
		MaxLevels:     4,
	}
}

// benchDB builds the shared kernel tree: benchKeys keys loaded twice
// (so deeper runs hold stale versions the probe must skip) with all
// background work drained.
func benchDB() *DB {
	space := memspace.New()
	mem := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("bench:dram", 6, 120e9, 90*sim.Nanosecond),
		NVM:   memdev.NewNVM("bench:nvm", 6, 39e9, 300*sim.Nanosecond, 3),
		LLC:   memdev.NewLLC("bench:llc", 300e9, 20*sim.Nanosecond),
	}
	db := Open(space, mem, benchLSMConfig())
	val := make([]byte, 46)
	var key []byte
	var trace []kvs.Access
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < benchKeys; i++ {
			key = appendBenchKey(key[:0], i)
			binary.LittleEndian.PutUint64(val, uint64(pass<<32|i))
			t, err := db.PutInto(trace[:0], key, val)
			if err != nil {
				panic(err)
			}
			trace = t
		}
	}
	db.Maintain(0)
	return db
}

// ReadBench is the reusable state of the LSMReadHotPath kernel. Step is
// the measured unit: format a key, probe the memtable and
// every run tier, and append the access trace — the exact storage work
// of one served GET.
type ReadBench struct {
	db    *DB
	key   []byte
	dst   []byte
	trace []kvs.Access
}

// NewReadBench builds the benchmark state.
func NewReadBench() *ReadBench { return &ReadBench{db: benchDB()} }

// Step runs one point read.
func (b *ReadBench) Step(i int) uint64 {
	b.key = appendBenchKey(b.key[:0], i%benchKeys)
	dst, trace, ok := b.db.GetInto(b.dst[:0], b.trace[:0], b.key)
	b.dst, b.trace = dst, trace
	if !ok {
		panic("lsm bench: preloaded key missing")
	}
	return uint64(len(dst)) + uint64(len(trace))
}

// BenchReadHotPath runs the point-read hot path n times and returns a
// checksum so the work cannot be optimized away.
func BenchReadHotPath(n int) uint64 {
	b := NewReadBench()
	var sink uint64
	for i := 0; i < n; i++ {
		sink += b.Step(i)
	}
	return sink
}

// scanBenchLimit is the pair budget per kernel scan, matching the ycsb
// experiment's scan length.
const scanBenchLimit = 16

// ScanBench is the reusable state of the ScanMerge kernel. Step runs
// one merged-iterator range scan (memtable + every run, newest version
// wins) from a rotating start key.
type ScanBench struct {
	db    *DB
	key   []byte
	buf   []byte
	pairs []kvs.ScanPair
	trace []kvs.Access
}

// NewScanBench builds the benchmark state.
func NewScanBench() *ScanBench { return &ScanBench{db: benchDB()} }

// Step runs one limit-16 forward scan.
func (b *ScanBench) Step(i int) uint64 {
	b.key = appendBenchKey(b.key[:0], i%benchKeys)
	buf, pairs, trace := b.db.ScanInto(b.buf[:0], b.pairs[:0], b.trace[:0],
		b.key, scanBenchLimit, i%8 == 0)
	b.buf, b.pairs, b.trace = buf, pairs, trace
	return uint64(len(pairs)) + uint64(len(buf))
}

// BenchScanMerge runs the merged range scan n times and returns a
// checksum so the work cannot be optimized away.
func BenchScanMerge(n int) uint64 {
	b := NewScanBench()
	var sink uint64
	for i := 0; i < n; i++ {
		sink += b.Step(i)
	}
	return sink
}

// writeBenchKeys is the write kernel's key universe, the ycsb
// experiment's at quick scale.
const writeBenchKeys = 1 << 13

// writeBenchConfig is the ycsb experiment's tree: the WAL is smaller
// than the memtable, so sustained updates wrap it, and L0 holds two
// runs, so every third flush compacts.
func writeBenchConfig() Config {
	return Config{
		MemtableBytes: 64 << 10,
		L0Runs:        2,
		SSTableBytes:  2 << 20,
		WALBytes:      48 << 10,
		MaxLevels:     4,
	}
}

// WriteBench is the reusable state of the LSMWriteCompact kernel. Step
// is one YCSB-A operation on the ycsb experiment's tree, a Zipf(0.99)
// key read or updated with equal odds, followed by Maintain: the
// flushes, compactions and run frees the updates trigger are all part
// of the measured work.
type WriteBench struct {
	db    *DB
	rng   *sim.RNG
	zipf  *sim.Zipf
	now   sim.Time
	key   []byte
	val   []byte
	dst   []byte
	trace []kvs.Access
}

// NewWriteBench preloads writeBenchKeys 46 B values and drains the
// preload's background work, as the ycsb experiment does.
func NewWriteBench() *WriteBench {
	space := memspace.New()
	mem := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("bench:dram", 6, 120e9, 90*sim.Nanosecond),
		NVM:   memdev.NewNVM("bench:nvm", 6, 39e9, 300*sim.Nanosecond, 3),
		LLC:   memdev.NewLLC("bench:llc", 300e9, 20*sim.Nanosecond),
	}
	rng := sim.NewRNG(7)
	b := &WriteBench{
		db:   Open(space, mem, writeBenchConfig()),
		rng:  rng,
		zipf: sim.NewZipf(rng, writeBenchKeys, 0.99),
		val:  make([]byte, 46),
	}
	for i := 0; i < writeBenchKeys; i++ {
		b.put(i, 0)
	}
	b.db.Maintain(0)
	return b
}

func (b *WriteBench) put(k int, version uint64) {
	b.key = appendBenchKey(b.key[:0], k)
	binary.LittleEndian.PutUint64(b.val, uint64(k))
	binary.LittleEndian.PutUint64(b.val[8:], version)
	trace, err := b.db.PutInto(b.trace[:0], b.key, b.val)
	if err != nil {
		panic(err)
	}
	b.trace = trace
}

// Step runs one YCSB-A operation and the Maintain after it.
func (b *WriteBench) Step(i int) uint64 {
	k := int(b.zipf.Next())
	if b.rng.Intn(2) == 0 {
		b.key = appendBenchKey(b.key[:0], k)
		dst, trace, ok := b.db.GetInto(b.dst[:0], b.trace[:0], b.key)
		b.dst, b.trace = dst, trace
		if !ok {
			panic("lsm bench: preloaded key missing")
		}
	} else {
		b.put(k, uint64(i)+1)
	}
	b.now, _ = b.db.Maintain(b.now)
	return uint64(len(b.trace))
}

// BenchWriteCompact runs n YCSB-A operations with Maintain after each
// and returns a checksum so the work cannot be optimized away.
func BenchWriteCompact(n int) uint64 {
	b := NewWriteBench()
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
