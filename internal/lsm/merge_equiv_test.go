package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"rambda/internal/kvs"
	"rambda/internal/sim"
)

// This file pins the streaming flush and compaction to the map+sort
// builder they replaced. refTree replays the tree's structural
// transitions (flush on a full memtable or a WAL wrap, L0 overflow,
// cascades, tombstones dropped at the bottom level) on run images
// built the old way: every record of the inputs poured into a map, the
// newest sequence winning, then the keys sorted and the run written.
// Every run the DB holds must match its reference byte for byte, with
// the same reserved and backed sizes.

// refEntry is one resolved record of the reference builder.
type refEntry struct {
	seq  uint64
	val  []byte
	tomb bool
}

// refBuild is the map+sort run builder: sorted keys, [4B magic][4B
// count], then one record per key.
func refBuild(entries map[string]refEntry) []byte {
	keys := make([]string, 0, len(entries))
	total := runHdr
	for k, e := range entries {
		keys = append(keys, k)
		total += recordBytes(len(k), len(e.val))
	}
	sort.Strings(keys)
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:4], sstMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(keys)))
	off := runHdr
	for _, k := range keys {
		e := entries[k]
		putRecordHdr(buf[off:], len(k), len(e.val), e.seq, e.tomb)
		copy(buf[off+recordHdr:], k)
		copy(buf[off+recordHdr+len(k):], e.val)
		off += recordBytes(len(k), len(e.val))
	}
	return buf
}

// refScan pours a run image's records into dst; a record overwrites
// only an older (lower-sequence) one.
func refScan(run []byte, dst map[string]refEntry) {
	count := int(binary.LittleEndian.Uint32(run[4:8]))
	off := runHdr
	for i := 0; i < count; i++ {
		kl, vl, seq, tomb := parseRecordHdr(run[off : off+recordHdr])
		k := string(run[off+recordHdr : off+recordHdr+kl])
		if old, ok := dst[k]; !ok || old.seq <= seq {
			dst[k] = refEntry{seq: seq, val: append([]byte(nil), run[off+recordHdr+kl:off+recordHdr+kl+vl]...), tomb: tomb}
		}
		off += recordBytes(kl, vl)
	}
}

// refRun is a reference run: its image and the address space it
// reserves.
type refRun struct {
	img     []byte
	reserve uint64
}

// refTree is the reference model of the tree's structure.
type refTree struct {
	cfg                  Config
	seq                  uint64
	walOff               uint64
	mem                  map[string]refEntry
	memBytes             int
	levels               [][]refRun
	flushes, compactions int64
	bottomMerges         int
}

func newRefTree(cfg Config) *refTree {
	return &refTree{cfg: cfg, mem: map[string]refEntry{}, levels: make([][]refRun, cfg.MaxLevels)}
}

func (r *refTree) write(key string, val []byte, tomb bool) {
	rec := recordBytes(len(key), len(val))
	if r.walOff+uint64(rec) > r.cfg.WALBytes {
		r.flush()
	}
	r.seq++
	r.walOff += uint64(rec)
	r.mem[key] = refEntry{seq: r.seq, val: append([]byte(nil), val...), tomb: tomb}
	r.memBytes += rec
	if r.memBytes >= r.cfg.MemtableBytes {
		r.flush()
	}
}

func (r *refTree) flush() {
	if len(r.mem) == 0 {
		return
	}
	r.levels[0] = append(r.levels[0], refRun{refBuild(r.mem), r.cfg.SSTableBytes})
	r.mem = map[string]refEntry{}
	r.memBytes, r.walOff = 0, 0
	r.flushes++
	if len(r.levels[0]) > r.cfg.L0Runs {
		r.compact(0)
	}
}

func (r *refTree) compact(li int) {
	if li+1 >= r.cfg.MaxLevels {
		return
	}
	merged := map[string]refEntry{}
	if len(r.levels[li+1]) > 0 {
		refScan(r.levels[li+1][0].img, merged)
	}
	for _, run := range r.levels[li] {
		refScan(run.img, merged)
	}
	if li+1 == r.cfg.MaxLevels-1 {
		r.bottomMerges++
		for k, e := range merged {
			if e.tomb {
				delete(merged, k)
			}
		}
	}
	r.compactions++
	r.levels[li] = nil
	if len(merged) == 0 {
		r.levels[li+1] = nil
		return
	}
	img := refBuild(merged)
	r.levels[li+1] = []refRun{{img, r.cfg.SSTableBytes * uint64(li+2)}}
	if uint64(len(img)) > r.cfg.SSTableBytes*uint64(1<<uint(li+1)) && li+2 < r.cfg.MaxLevels {
		r.compact(li + 1)
	}
}

// alignUp rounds n up to the region alignment.
func alignUp(n uint64) uint64 { return (n + 63) &^ 63 }

// checkRuns compares every run of db with the reference.
func checkRuns(t *testing.T, db *DB, ref *refTree, step int) {
	t.Helper()
	st := db.Stats()
	if st.Flushes != ref.flushes || st.Compactions != ref.compactions {
		t.Fatalf("step %d: %d flushes, %d compactions; reference %d, %d",
			step, st.Flushes, st.Compactions, ref.flushes, ref.compactions)
	}
	for li, level := range db.levels {
		if len(level) != len(ref.levels[li]) {
			t.Fatalf("step %d: level %d holds %d runs, reference %d", step, li, len(level), len(ref.levels[li]))
		}
		for ri, run := range level {
			want := ref.levels[li][ri]
			got := run.region.Bytes()
			if uint64(len(got)) != alignUp(uint64(len(want.img))) ||
				run.region.Size != alignUp(max(want.reserve, uint64(len(want.img)))) {
				t.Fatalf("step %d: level %d run %d backs %d of %d bytes, reference %d of %d", step, li, ri,
					len(got), run.region.Size, alignUp(uint64(len(want.img))), alignUp(max(want.reserve, uint64(len(want.img)))))
			}
			if !bytes.Equal(got[:len(want.img)], want.img) || bytes.ContainsFunc(got[len(want.img):], func(r rune) bool { return r != 0 }) {
				t.Fatalf("step %d: level %d run %d differs from the map+sort build", step, li, ri)
			}
		}
	}
}

// TestStreamingMergeMatchesMapBuilder drives random put/delete streams,
// through both the timed and the serving path, with snapshots pinning
// memtable generations and runs across flushes and multi-level
// cascades. After every write the DB's runs must equal the reference's,
// and every snapshot must still read what it pinned when released.
func TestStreamingMergeMatchesMapBuilder(t *testing.T) {
	cfg := Config{MemtableBytes: 1 << 10, L0Runs: 2, SSTableBytes: 1 << 10, WALBytes: 896, MaxLevels: 4}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			db, _, _ := newDB(t, cfg)
			ref := newRefTree(cfg)
			rng := sim.NewRNG(seed)
			live := map[string][]byte{}
			type pinned struct {
				s    *Snapshot
				want map[string][]byte
			}
			var snaps []pinned
			// seen keeps the key and value views scans handed out, with
			// copies: a view must never be rewritten, even after its
			// memtable generation is flushed and reused.
			type seenPair struct {
				k, kCopy string
				v, vCopy []byte
			}
			var seen []seenPair
			universe := 40 + rng.Intn(200)
			now := sim.Time(0)
			for step := 0; step < 4000; step++ {
				key := fmt.Sprintf("k%0*d", 1+rng.Intn(8), rng.Intn(universe))
				val := make([]byte, rng.Intn(48))
				for i := range val {
					val[i] = byte(rng.Intn(256))
				}
				tomb := rng.Intn(5) == 0
				timed := rng.Intn(2) == 0
				switch {
				case tomb && timed:
					now, _ = db.Delete(now, key)
				case tomb:
					db.DeleteInto(nil, []byte(key))
				case timed:
					now, _ = db.Put(now, key, val)
				default:
					if _, err := db.PutInto(nil, []byte(key), val); err != nil {
						t.Fatal(err)
					}
				}
				if tomb {
					ref.write(key, nil, true)
					delete(live, key)
				} else {
					ref.write(key, val, false)
					live[key] = val
				}
				checkRuns(t, db, ref, step)
				switch r := rng.Intn(100); {
				case r < 2:
					want := make(map[string][]byte, len(live))
					for k, v := range live {
						want[k] = v
					}
					snaps = append(snaps, pinned{db.Snapshot(), want})
				case r < 4 && len(snaps) > 0:
					i := rng.Intn(len(snaps))
					p := snaps[i]
					n := p.s.Scan("", 0, false, func(k string, v []byte) bool {
						if w, ok := p.want[k]; !ok || !bytes.Equal(v, w) {
							t.Fatalf("step %d: snapshot scan %q=%x, pinned %x (%v)", step, k, v, w, ok)
						}
						seen = append(seen, seenPair{k, string([]byte(k)), v, append([]byte(nil), v...)})
						return true
					})
					if n != len(p.want) {
						t.Fatalf("step %d: snapshot scan saw %d keys, pinned %d", step, n, len(p.want))
					}
					p.s.Release()
					snaps = append(snaps[:i], snaps[i+1:]...)
				}
			}
			for _, p := range snaps {
				p.s.Release()
			}
			for _, p := range seen {
				if p.k != p.kCopy || !bytes.Equal(p.v, p.vCopy) {
					t.Fatalf("a scanned view was rewritten: %q=%x, scanned as %q=%x", p.k, p.v, p.kCopy, p.vCopy)
				}
			}
			if ref.bottomMerges == 0 || ref.compactions < 10 {
				t.Fatalf("stream reached %d compactions, %d into the bottom level: no cascade exercised",
					ref.compactions, ref.bottomMerges)
			}
			for k, v := range live {
				got, _, ok := db.Get(now, k)
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("final read %q=%x ok=%v, want %x", k, got, ok, v)
				}
			}
		})
	}
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPutIntoZeroAllocBetweenFlushes guards the memtable's arena: once
// a few generations have grown its index, version array and arena, a
// put that does not flush allocates nothing — new keys and values are
// interned into the current arena block.
func TestPutIntoZeroAllocBetweenFlushes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts distorted under -race")
	}
	cfg := Config{MemtableBytes: 64 << 10, L0Runs: 2, SSTableBytes: 2 << 20, WALBytes: 1 << 20, MaxLevels: 4}
	db, _, _ := newDB(t, cfg)
	key := make([]byte, 0, 18)
	val := make([]byte, 100)
	var trace []kvs.Access
	put := func(i int) {
		key = appendBenchKey(key[:0], i%5000)
		tr, err := db.PutInto(trace[:0], key, val)
		if err != nil {
			t.Fatal(err)
		}
		trace = tr
	}
	for i := 0; i < 20000; i++ {
		put(i)
	}
	db.Maintain(0)
	// A fresh generation: fill it to just under the flush threshold
	// (the arena block of the first put may be new).
	db.Flush(0)
	put(0)
	flushes := db.Stats().Flushes
	i := 1
	n := mallocs(func() {
		for db.memBytes+recordBytes(18, len(val)) < cfg.MemtableBytes {
			put(i)
			i++
		}
	})
	if db.Stats().Flushes != flushes {
		t.Fatal("the measured window flushed")
	}
	if n != 0 {
		t.Fatalf("%d puts between flushes made %d allocations, want 0", i-1, n)
	}
}

// TestCompactionAllocsIndependentOfRecords guards the streaming merge:
// a compaction allocates its run (region, index, name) and nothing per
// record, so a tree with 8× the records compacts with as many
// allocations.
func TestCompactionAllocsIndependentOfRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts distorted under -race")
	}
	compact := func(records int) uint64 {
		cfg := Config{MemtableBytes: 1 << 30, L0Runs: 100, SSTableBytes: 1 << 30, WALBytes: 1 << 30, MaxLevels: 3}
		db, _, _ := newDB(t, cfg)
		val := make([]byte, 32)
		var key []byte
		for run := 0; run < 4; run++ {
			for i := 0; i < records; i++ {
				key = appendBenchKey(key[:0], i*4+run%2)
				if _, err := db.PutInto(nil, key, val); err != nil {
					t.Fatal(err)
				}
			}
			db.Flush(0)
		}
		return mallocs(func() { db.compactState(0) })
	}
	small, large := compact(500), compact(4000)
	if large != small || small > 16 {
		t.Fatalf("compaction allocations: %d at 500 records per run, %d at 4000; want equal and at most 16", small, large)
	}
}
