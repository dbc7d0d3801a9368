// Package lsm implements a log-structured merge-tree key-value store on
// NVM — the stand-in for RocksDB, which the paper's transaction
// evaluation uses as the persistent storage medium (Sec. VI-C:
// "we adopt RocksDB, a persistent key-value database, to use the
// emulated NVM as a persistent storage medium").
//
// The structure is the classic one: a write-ahead log and the sorted
// string tables live in NVM regions of the simulated address space
// (real bytes, so recovery is testable by re-opening from the same
// regions), the memtable lives in DRAM, and flush/compaction charge
// streaming NVM writes while reads charge per-run probes.
//
// Every record carries a sequence number from a global counter;
// compaction resolves a key to its highest-sequence record, and
// recovery resumes the counter from the highest one it finds.
//
// A run superseded by compaction stays mapped until the end of the
// next [DB.Maintain], after the background write that superseded it has
// been charged, and is then unmapped from the address space
// ([memspace.Space.Free]), so no charged access and no pending write
// ever names an unmapped address.
//
// # Serving path
//
// DB implements kvs.Backend, and that is its only read/write API:
// [DB.GetInto], [DB.PutInto], [DB.DeleteInto], and [DB.ScanInto] run
// the operation functionally and append the memory-access trace (WAL
// appends and run probes at their real NVM addresses, memtable touches
// in the DRAM arena) for the serving handler to charge through its
// coherent datapath. Flush and compaction triggered by those writes
// only mutate state; their NVM streaming cost accumulates as pending
// background work that [DB.Maintain] charges to the write-bandwidth
// model — occupying the NVM channels so subsequent reads queue behind
// compaction, which is how compaction pressure surfaces in tail
// latency. A WAL wrap is the exception: the triggering write must
// stall until the forced flush is durable (Maintain reports it;
// [Stats].Stalls counts them).
package lsm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"rambda/internal/kvs"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// DB implements the pluggable KVS backend contract.
var _ kvs.Backend = (*DB)(nil)

// Config sizes the tree.
type Config struct {
	// MemtableBytes is the flush threshold.
	MemtableBytes int
	// L0Runs triggers compaction of level 0 into level 1.
	L0Runs int
	// SSTableBytes is the address space reserved for one flushed run;
	// a compaction into level l reserves (l+1)× it. A run larger than
	// its reservation grows it. Only the bytes a run holds are backed.
	SSTableBytes uint64
	// WALBytes sizes the write-ahead log ring.
	WALBytes uint64
	// MaxLevels bounds the tree depth.
	MaxLevels int
}

// DefaultConfig returns a small tree suitable for simulation scale.
func DefaultConfig() Config {
	return Config{
		MemtableBytes: 64 << 10,
		L0Runs:        4,
		SSTableBytes:  4 << 20,
		WALBytes:      1 << 20,
		MaxLevels:     4,
	}
}

// DB is the store.
type DB struct {
	cfg   Config
	space *memspace.Space
	mem   *memdev.System

	wal      *memspace.Region
	memArena *memspace.Region // DRAM stand-in for the memtable's working set
	walOff   uint64

	// seq is the global sequence counter: every write gets the next
	// value.
	seq uint64

	// mt is the memtable; a flush resets it in place.
	mt       *memtable
	memBytes int
	// keys is flushState's reusable sort buffer, and merge
	// compactState's merge state.
	keys  []string
	merge runMerge

	// levels[0] holds newest-first overlapping runs; deeper levels hold
	// one sorted run each.
	levels [][]*sstable

	// pending is background NVM work (flush/compaction run writes)
	// built but not yet charged to the write-bandwidth model;
	// pendingStall marks a WAL-wrap flush whose charge is synchronous.
	pending      []pendingIO
	pendingStall bool

	// dead lists the runs compaction superseded; Maintain unmaps them
	// once their superseding writes are charged.
	dead []*sstable

	puts, gets, deletes, scans int64
	flushes, compactions       int64
	stalls                     int64
}

// pendingIO is one deferred background NVM write (a flushed or
// compacted run).
type pendingIO struct {
	addr  uint64
	bytes int
}

// Open creates an empty store inside the given space.
func Open(space *memspace.Space, mem *memdev.System, cfg Config) *DB {
	if cfg.MemtableBytes <= 0 || cfg.WALBytes == 0 || cfg.MaxLevels < 1 {
		panic("lsm: bad config")
	}
	return &DB{
		cfg:      cfg,
		space:    space,
		mem:      mem,
		wal:      space.Alloc("lsm-wal", cfg.WALBytes, memspace.KindNVM),
		memArena: space.Alloc("lsm-mem", uint64(cfg.MemtableBytes), memspace.KindDRAM),
		mt:       newMemtable(cfg),
		levels:   make([][]*sstable, cfg.MaxLevels),
	}
}

// Stats summarizes activity.
type Stats struct {
	Puts, Gets, Deletes, Scans int64
	Flushes, Compactions       int64
	// Stalls counts writes that blocked synchronously on a WAL-wrap
	// flush (the write-stall analog of RocksDB's L0 stalls).
	Stalls          int64
	Runs            []int // runs per level
	MemtableEntries int
	MemtableBytes   int
	Seq             uint64
}

// Stats returns activity counters.
func (db *DB) Stats() Stats {
	s := Stats{
		Puts: db.puts, Gets: db.gets, Deletes: db.deletes, Scans: db.scans,
		Flushes: db.flushes, Compactions: db.compactions, Stalls: db.stalls,
		MemtableEntries: len(db.mt.index),
		MemtableBytes:   db.memBytes,
		Seq:             db.seq,
	}
	for _, l := range db.levels {
		s.Runs = append(s.Runs, len(l))
	}
	return s
}

// RegisterMetrics exposes the tree's health as gauges under prefix:
// memtable occupancy, run counts, flush/compaction/stall totals, and
// the sequence high-water mark.
func (db *DB) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".memtable_bytes", func() float64 { return float64(db.memBytes) })
	reg.Gauge(prefix+".memtable_entries", func() float64 { return float64(len(db.mt.index)) })
	reg.Gauge(prefix+".flushes", func() float64 { return float64(db.flushes) })
	reg.Gauge(prefix+".compactions", func() float64 { return float64(db.compactions) })
	reg.Gauge(prefix+".stalls", func() float64 { return float64(db.stalls) })
	reg.Gauge(prefix+".seq", func() float64 { return float64(db.seq) })
	reg.Gauge(prefix+".runs", func() float64 {
		n := 0
		for _, l := range db.levels {
			n += len(l)
		}
		return float64(n)
	})
}

// recordBytes is the record framing shared by the WAL and sstables:
// [2B klen][4B vlen|tomb][8B seq][key][val].
func recordBytes(klen, vlen int) int { return recordHdr + klen + vlen }

const (
	recordHdr = 14
	tombBit   = 1 << 31
)

// writeState performs the functional write — WAL append, memtable
// insert, flush/compaction state transitions — and returns the
// WAL address of the appended record. NVM time for the WAL record is
// the caller's to charge through the access trace; flush/compaction
// cost lands in pending.
func (db *DB) writeState(key, val []byte, tomb bool) (memspace.Addr, error) {
	if len(key) == 0 || len(key) > 0xFFFF || len(val) >= tombBit {
		return 0, fmt.Errorf("lsm: invalid key/value size (%d/%d)", len(key), len(val))
	}
	rec := recordBytes(len(key), len(val))
	if uint64(rec) > db.wal.Size {
		return 0, fmt.Errorf("lsm: record %d exceeds WAL", rec)
	}
	if db.walOff+uint64(rec) > db.wal.Size {
		// The log is full of records that may still be unflushed: flush
		// the memtable (persisting them as a run) before reclaiming the
		// ring. The triggering write must wait for it — a write stall.
		db.flushState()
		db.pendingStall = true
		db.stalls++
	}
	db.seq++
	walAddr := db.wal.Base + memspace.Addr(db.walOff)
	db.encodeRecord(walAddr, key, val, db.seq, tomb)
	db.walOff += uint64(rec)

	db.mt.add(key, val, db.seq, tomb)
	db.memBytes += rec
	if tomb {
		db.deletes++
	} else {
		db.puts++
	}
	if db.memBytes >= db.cfg.MemtableBytes {
		db.flushState()
	}
	return walAddr, nil
}

func (db *DB) encodeRecord(addr memspace.Addr, key, val []byte, seq uint64, tomb bool) {
	buf := db.space.Slice(addr, recordBytes(len(key), len(val)))
	putRecordHdr(buf, len(key), len(val), seq, tomb)
	copy(buf[recordHdr:], key)
	copy(buf[recordHdr+len(key):], val)
}

func putRecordHdr(buf []byte, klen, vlen int, seq uint64, tomb bool) {
	binary.LittleEndian.PutUint16(buf[0:2], uint16(klen))
	vl := uint32(vlen)
	if tomb {
		vl |= tombBit
	}
	binary.LittleEndian.PutUint32(buf[2:6], vl)
	binary.LittleEndian.PutUint64(buf[6:14], seq)
}

func parseRecordHdr(buf []byte) (klen, vlen int, seq uint64, tomb bool) {
	klen = int(binary.LittleEndian.Uint16(buf[0:2]))
	raw := binary.LittleEndian.Uint32(buf[2:6])
	return klen, int(raw &^ uint32(tombBit)), binary.LittleEndian.Uint64(buf[6:14]), raw&tombBit != 0
}

// probeRuns walks the run hierarchy for key — L0 newest-first, one run
// per deeper level — invoking charge per NVM probe (with the record's
// real address, or the run base on a miss) and hit (at most once) with
// the winning record.
func (db *DB) probeRuns(key string,
	charge func(addr memspace.Addr, bytes int), hit func(val []byte, tomb bool)) {
	for li, runs := range db.levels {
		for ri := len(runs) - 1; ri >= 0; ri-- { // newest first within L0
			run := runs[ri]
			val, _, tomb, addr, probed, found := run.get(key)
			charge(addr, probed)
			if found {
				hit(val, tomb)
				return
			}
			if li > 0 {
				break // one run per deeper level
			}
		}
	}
}

// flushState writes the memtable's entries, sorted by key, into a new
// L0 run, resets the memtable, and truncates the WAL. The run's
// streaming NVM write lands in pending.
func (db *DB) flushState() {
	mt := db.mt
	if len(mt.index) == 0 {
		return
	}
	keys := db.keys[:0]
	total := runHdr
	for k, i := range mt.index {
		keys = append(keys, k)
		total += recordBytes(len(k), len(mt.entries[i].val))
	}
	slices.Sort(keys)
	w := newRunWriter(db.space, "lsm-l0-"+strconv.FormatInt(db.flushes, 10), db.cfg.SSTableBytes, total, len(keys))
	for _, k := range keys {
		v := mt.entries[mt.index[k]]
		w.add(k, v.val, v.seq, v.tomb)
	}
	clear(keys)
	db.keys = keys[:0]
	run, bytes := w.t, w.off
	db.pending = append(db.pending, pendingIO{addr: uint64(run.region.Base), bytes: bytes})
	db.levels[0] = append(db.levels[0], run)
	mt.reset()
	db.memBytes = 0
	db.walOff = 0
	db.flushes++
	if len(db.levels[0]) > db.cfg.L0Runs {
		db.compactState(0)
	}
}

// compactState merges every run of level li plus the run at li+1 into a
// new single run at li+1, deferring the streaming write to pending. The
// replaced runs wait in dead for the end of the next Maintain.
//
// The merge streams: a k-way merge of the sorted input runs resolves
// each key to its newest record (dropping tombstones at the bottom
// level), once to size the output and once to write it.
func (db *DB) compactState(li int) {
	if li+1 >= db.cfg.MaxLevels {
		return // bottom level absorbs runs without further merging
	}
	// Oldest first: on a sequence tie the later input wins.
	m := &db.merge
	m.reset(li+1 == db.cfg.MaxLevels-1)
	if len(db.levels[li+1]) > 0 {
		m.addInput(db.levels[li+1][0])
	}
	for _, run := range db.levels[li] {
		m.addInput(run)
	}
	count, total := 0, runHdr
	for m.next() {
		count++
		total += len(m.rec)
	}
	db.compactions++
	db.dead = append(db.dead, db.levels[li]...)
	db.dead = append(db.dead, db.levels[li+1]...)
	clear(db.levels[li])
	db.levels[li] = db.levels[li][:0]
	clear(db.levels[li+1])
	db.levels[li+1] = db.levels[li+1][:0]
	if count == 0 {
		m.reset(false)
		return
	}
	w := newRunWriter(db.space, "lsm-l"+strconv.Itoa(li+1)+"-"+strconv.FormatInt(db.compactions, 10),
		db.cfg.SSTableBytes*uint64(li+2), total, count)
	m.rewind()
	for m.next() {
		w.copyRecord(m.rec)
	}
	m.reset(false)
	run, bytes := w.t, w.off
	db.pending = append(db.pending, pendingIO{addr: uint64(run.region.Base), bytes: bytes})
	db.levels[li+1] = append(db.levels[li+1], run)
	// Cascade if the merged level has grown too large.
	if uint64(bytes) > db.cfg.SSTableBytes*uint64(1<<uint(li+1)) && li+2 < db.cfg.MaxLevels {
		db.compactState(li + 1)
	}
}

// Maintain drains pending background work — flush and compaction run
// writes — into the NVM write-bandwidth model starting at now. It
// returns the time the device finishes and whether the caller's write
// stalled on a WAL-wrap flush (in which case the triggering request is
// not durable before the returned time). Charging occupies the NVM
// channel resource, so reads issued afterward queue behind the
// background stream: compaction pressure becomes tail latency.
func (db *DB) Maintain(now sim.Time) (sim.Time, bool) {
	at := now
	for _, p := range db.pending {
		at = db.mem.NVM.WriteAt(at, p.addr, p.bytes)
	}
	db.pending = db.pending[:0]
	for i, t := range db.dead {
		db.space.Free(t.region)
		db.dead[i] = nil
	}
	db.dead = db.dead[:0]
	stalled := db.pendingStall
	db.pendingStall = false
	return at, stalled
}

// --- kvs.Backend: the trace-emitting serving path ---

// memAccess maps a memtable touch for key into the DRAM arena: a
// deterministic cacheline-aligned slot keyed by the key's hash, the
// address the serving handler charges through its coherent datapath.
func (db *DB) memAccess(key []byte, write bool) kvs.Access {
	slots := db.memArena.Size / 64
	off := (kvs.Hash64(key) % slots) * 64
	return kvs.Access{Addr: db.memArena.Base + memspace.Addr(off), Bytes: 64, Write: write}
}

// GetInto implements kvs.Backend: the value is appended to dst and the
// memory accesses — memtable arena touch, then one NVM probe per run
// consulted — to trace. Ownership follows the kvs §8 discipline: the
// returned slices alias the caller's buffers and stay valid until the
// caller reuses them; the DB retains nothing.
func (db *DB) GetInto(dst []byte, trace []kvs.Access, key []byte) ([]byte, []kvs.Access, bool) {
	db.gets++
	trace = append(trace, db.memAccess(key, false))
	if v, ok := db.mt.get(view(key)); ok {
		if v.tomb {
			return dst, trace, false
		}
		return append(dst, v.val...), trace, true
	}
	found, tomb := false, false
	db.probeRuns(view(key), func(addr memspace.Addr, bytes int) {
		trace = append(trace, kvs.Access{Addr: addr, Bytes: bytes})
	}, func(v []byte, t bool) {
		tomb = t
		if !t {
			dst = append(dst, v...)
		}
		found = true
	})
	return dst, trace, found && !tomb
}

// PutInto implements kvs.Backend: WAL append (the durability point, an
// NVM write at the record's log address) plus the memtable arena
// touch. Flush/compaction triggered here only mutate state — call
// Maintain afterward to charge the background stream.
func (db *DB) PutInto(trace []kvs.Access, key, val []byte) ([]kvs.Access, error) {
	walAddr, err := db.writeState(key, val, false)
	if err != nil {
		return trace, err
	}
	trace = append(trace, kvs.Access{Addr: walAddr, Bytes: recordBytes(len(key), len(val)), Write: true})
	trace = append(trace, db.memAccess(key, true))
	return trace, nil
}

// DeleteInto implements kvs.Backend: a tombstone write. ok reports
// whether the key was visible before the delete.
func (db *DB) DeleteInto(trace []kvs.Access, key []byte) ([]kvs.Access, bool) {
	visible := db.liveKey(view(key))
	walAddr, err := db.writeState(key, nil, true)
	if err != nil {
		return trace, false
	}
	trace = append(trace, kvs.Access{Addr: walAddr, Bytes: recordBytes(len(key), 0), Write: true})
	trace = append(trace, db.memAccess(key, true))
	return trace, visible
}

// liveKey reports whether key currently resolves to a non-tombstone
// version (functional visibility check, no charging).
func (db *DB) liveKey(key string) bool {
	if v, ok := db.mt.get(key); ok {
		return !v.tomb
	}
	live := false
	db.probeRuns(key, func(memspace.Addr, int) {}, func(_ []byte, tomb bool) {
		live = !tomb
	})
	return live
}

// ScanInto implements kvs.Backend: a merged-iterator range scan from
// start (inclusive) over memtable + all runs, newest version wins,
// tombstones suppress. Pairs are appended to buf/pairs per the
// kvs.ScanPair layout and every consulted source appends its access to
// trace.
func (db *DB) ScanInto(buf []byte, pairs []kvs.ScanPair, trace []kvs.Access,
	start []byte, limit int, reverse bool) ([]byte, []kvs.ScanPair, []kvs.Access) {
	db.scans++
	it := newMergeIter(db.mt, db.levels, string(start), reverse)
	emitted := 0
	for emitted < limit && it.next() {
		trace = append(trace, it.probes...)
		it.probes = it.probes[:0]
		if it.tomb {
			continue
		}
		trace = append(trace, db.memAccess([]byte(it.key), false))
		keyOff := len(buf)
		buf = append(buf, it.key...)
		buf = append(buf, it.val...)
		pairs = append(pairs, kvs.ScanPair{KeyOff: keyOff, KeyLen: len(it.key), ValLen: len(it.val)})
		emitted++
	}
	trace = append(trace, it.probes...)
	return buf, pairs, trace
}

// --- merged iterator ---

// mergeIter walks memtable + runs in key order, resolving each key to
// its newest record. One source per structure: the memtable's sorted
// key list and each sstable's index.
type mergeIter struct {
	sources []*iterSource
	reverse bool

	// Current resolved record after next():
	key  string
	val  []byte
	tomb bool
	// probes accumulates the NVM accesses of the records consulted for
	// the current key (serving-path charging).
	probes []kvs.Access
}

// iterSource is one sorted structure's cursor.
type iterSource struct {
	keys []string
	pos  int // index into keys; -1 / len(keys) = exhausted
	mem  *memtable
	run  *sstable
}

func (src *iterSource) done(reverse bool) bool {
	if reverse {
		return src.pos < 0
	}
	return src.pos >= len(src.keys)
}

func (src *iterSource) advance(reverse bool) {
	if reverse {
		src.pos--
	} else {
		src.pos++
	}
}

func newMergeIter(mem *memtable, levels [][]*sstable, start string, reverse bool) *mergeIter {
	it := &mergeIter{reverse: reverse}
	memKeys := make([]string, 0, len(mem.index))
	for k := range mem.index {
		memKeys = append(memKeys, k)
	}
	sort.Strings(memKeys)
	it.sources = append(it.sources, &iterSource{keys: memKeys, pos: seekPos(memKeys, start, reverse), mem: mem})
	for _, level := range levels {
		for _, run := range level {
			it.sources = append(it.sources, &iterSource{keys: run.keys, pos: seekPos(run.keys, start, reverse), run: run})
		}
	}
	return it
}

// seekPos places a cursor at the first key of the scan: the smallest
// key >= start going forward, the largest key <= start in reverse (an
// empty start means the last key in reverse, the first otherwise).
func seekPos(keys []string, start string, reverse bool) int {
	if !reverse {
		if start == "" {
			return 0
		}
		return sort.SearchStrings(keys, start)
	}
	if start == "" {
		return len(keys) - 1
	}
	i := sort.SearchStrings(keys, start)
	if i < len(keys) && keys[i] == start {
		return i
	}
	return i - 1
}

// next advances to the following key in scan order, resolving its
// newest record into key/val/tomb. It returns false when every source
// is exhausted.
func (it *mergeIter) next() bool {
	best := ""
	found := false
	for _, src := range it.sources {
		if src.done(it.reverse) {
			continue
		}
		k := src.keys[src.pos]
		if !found || (!it.reverse && k < best) || (it.reverse && k > best) {
			best, found = k, true
		}
	}
	if !found {
		return false
	}
	// Resolve the newest record among the sources at best, then
	// advance them all past it.
	var bestSeq uint64
	resolved := false
	for _, src := range it.sources {
		if src.done(it.reverse) || src.keys[src.pos] != best {
			continue
		}
		var val []byte
		var seq uint64
		var tomb bool
		if src.mem != nil {
			e, _ := src.mem.get(best)
			val, seq, tomb = e.val, e.seq, e.tomb
		} else {
			var addr memspace.Addr
			var probed int
			val, seq, tomb, addr, probed, _ = src.run.get(best)
			it.probes = append(it.probes, kvs.Access{Addr: addr, Bytes: probed})
		}
		if !resolved || seq > bestSeq {
			bestSeq, it.val, it.tomb, resolved = seq, val, tomb, true
		}
		src.advance(it.reverse)
	}
	it.key = best
	return true
}

// --- sstables ---

// sstable is one sorted run in NVM.
type sstable struct {
	region *memspace.Region
	// index holds the sorted keys with their record offsets (rebuilt
	// by scanning the region on recovery, held in DRAM at runtime).
	// Each key is a view of the key bytes in the run's own records,
	// which are never rewritten.
	keys    []string
	offsets []uint32
}

const (
	sstMagic = 0x4C534D32 // "LSM2"
	runHdr   = 8          // [4B magic][4B count]
)

// runWriter fills a new run's region record by record, in key order,
// indexing each record as it lands.
type runWriter struct {
	t   *sstable
	buf []byte
	off int
}

// newRunWriter allocates a run of count records in total bytes. The
// region reserves capBytes of address space (more if the records need
// it) but backs only the bytes it holds.
func newRunWriter(space *memspace.Space, name string, capBytes uint64, total, count int) runWriter {
	if uint64(total) > capBytes {
		capBytes = uint64(total) // grow: address space is free
	}
	region := space.AllocPrefix(name, capBytes, uint64(total), memspace.KindNVM)
	buf := region.Bytes()
	binary.LittleEndian.PutUint32(buf[0:4], sstMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(count))
	t := &sstable{region: region,
		keys: make([]string, 0, count), offsets: make([]uint32, 0, count)}
	return runWriter{t: t, buf: buf, off: runHdr}
}

// add encodes one record.
func (w *runWriter) add(key string, val []byte, seq uint64, tomb bool) {
	rec := w.buf[w.off : w.off+recordBytes(len(key), len(val))]
	putRecordHdr(rec, len(key), len(val), seq, tomb)
	copy(rec[recordHdr:], key)
	copy(rec[recordHdr+len(key):], val)
	w.index(rec, len(key))
}

// copyRecord copies an encoded record (from another run) verbatim.
func (w *runWriter) copyRecord(rec []byte) {
	n := copy(w.buf[w.off:], rec)
	kl, _, _, _ := parseRecordHdr(rec)
	w.index(w.buf[w.off:w.off+n], kl)
}

func (w *runWriter) index(rec []byte, klen int) {
	w.t.keys = append(w.t.keys, view(rec[recordHdr:recordHdr+klen]))
	w.t.offsets = append(w.t.offsets, uint32(w.off))
	w.off += len(rec)
}

// record returns the encoded record at index i.
func (t *sstable) record(i int) []byte {
	off := int(t.offsets[i])
	buf := t.region.Bytes()
	kl, vl, _, _ := parseRecordHdr(buf[off : off+recordHdr])
	return buf[off : off+recordBytes(kl, vl)]
}

// get binary-searches the run. probed is the byte count of NVM touched
// (index is in DRAM; one record read per hit/miss probe) and addr the
// probed NVM address (the record on a hit, the run base on a miss).
func (t *sstable) get(key string) (val []byte, seq uint64, tomb bool, addr memspace.Addr, probed int, found bool) {
	i := sort.SearchStrings(t.keys, key)
	if i >= len(t.keys) || t.keys[i] != key {
		return nil, 0, false, t.region.Base, memdev.NVMGranularity, false
	}
	rec := t.record(i)
	kl, _, seq, tomb := parseRecordHdr(rec)
	return rec[recordHdr+kl:], seq, tomb, t.region.Base + memspace.Addr(t.offsets[i]), len(rec), true
}

// runMerge is the streaming k-way merge compaction runs: next yields
// the inputs' keys in order, each once, as the record with the highest
// sequence number (the later input on a tie, so inputs are added
// oldest first). With dropTombs a key whose newest record is a
// tombstone is skipped. rewind restarts the merge over the same inputs.
type runMerge struct {
	inputs    []mergeInput
	dropTombs bool
	rec       []byte // the current key's winning record, after next
}

type mergeInput struct {
	t   *sstable
	pos int
}

func (m *runMerge) reset(dropTombs bool) {
	clear(m.inputs)
	m.inputs = m.inputs[:0]
	m.dropTombs = dropTombs
	m.rec = nil
}

func (m *runMerge) addInput(t *sstable) { m.inputs = append(m.inputs, mergeInput{t: t}) }

func (m *runMerge) rewind() {
	for i := range m.inputs {
		m.inputs[i].pos = 0
	}
}

func (m *runMerge) next() bool {
	for {
		best, found := "", false
		for i := range m.inputs {
			in := &m.inputs[i]
			if in.pos < len(in.t.keys) && (!found || in.t.keys[in.pos] < best) {
				best, found = in.t.keys[in.pos], true
			}
		}
		if !found {
			return false
		}
		var win []byte
		var winSeq uint64
		for i := range m.inputs {
			in := &m.inputs[i]
			if in.pos >= len(in.t.keys) || in.t.keys[in.pos] != best {
				continue
			}
			rec := in.t.record(in.pos)
			if _, _, seq, _ := parseRecordHdr(rec); win == nil || seq >= winSeq {
				win, winSeq = rec, seq
			}
			in.pos++
		}
		if _, _, _, tomb := parseRecordHdr(win); tomb && m.dropTombs {
			continue
		}
		m.rec = win
		return true
	}
}

// openSSTable rebuilds a run's index by scanning its region bytes, and
// reports the highest sequence number it holds.
func openSSTable(region *memspace.Region) (*sstable, uint64, error) {
	buf := region.Bytes()
	if len(buf) < runHdr || binary.LittleEndian.Uint32(buf[0:4]) != sstMagic {
		return nil, 0, fmt.Errorf("lsm: region %q is not an sstable", region.Name)
	}
	count := int(binary.LittleEndian.Uint32(buf[4:8]))
	t := &sstable{region: region}
	var maxSeq uint64
	off := runHdr
	for i := 0; i < count; i++ {
		if off+recordHdr > len(buf) {
			return nil, 0, fmt.Errorf("lsm: truncated sstable %q", region.Name)
		}
		kl, vl, seq, _ := parseRecordHdr(buf[off : off+recordHdr])
		if off+recordBytes(kl, vl) > len(buf) {
			return nil, 0, fmt.Errorf("lsm: truncated record in %q", region.Name)
		}
		t.keys = append(t.keys, view(buf[off+recordHdr:off+recordHdr+kl]))
		t.offsets = append(t.offsets, uint32(off))
		maxSeq = max(maxSeq, seq)
		off += recordBytes(kl, vl)
	}
	return t, maxSeq, nil
}

// Recover rebuilds a DB after a crash from the persistent regions: the
// sstable runs (oldest-to-newest per level, levels deep-to-shallow
// handled by scan order) and the WAL records not yet flushed. walValid
// is the number of durable WAL bytes (a real system reads until the
// checksum breaks; the simulation tracks it in the test). The sequence
// counter resumes from the highest sequence seen anywhere.
func Recover(space *memspace.Space, mem *memdev.System, cfg Config,
	wal *memspace.Region, walValid uint64, runs [][]*memspace.Region) (*DB, error) {
	db := &DB{
		cfg:      cfg,
		space:    space,
		mem:      mem,
		wal:      wal,
		memArena: space.Alloc("lsm-mem", uint64(cfg.MemtableBytes), memspace.KindDRAM),
		mt:       newMemtable(cfg),
		levels:   make([][]*sstable, cfg.MaxLevels),
	}
	for li, level := range runs {
		if li >= cfg.MaxLevels {
			return nil, fmt.Errorf("lsm: %d levels exceed MaxLevels %d", len(runs), cfg.MaxLevels)
		}
		for _, region := range level {
			t, maxSeq, err := openSSTable(region)
			if err != nil {
				return nil, err
			}
			db.seq = max(db.seq, maxSeq)
			db.levels[li] = append(db.levels[li], t)
		}
	}
	// Replay the WAL tail into the memtable.
	buf := wal.Bytes()
	off := uint64(0)
	for off+recordHdr <= walValid {
		kl, vl, seq, tomb := parseRecordHdr(buf[off : off+recordHdr])
		if off+uint64(recordHdr+kl+vl) > walValid {
			break // torn tail record: discarded, like a failed checksum
		}
		key := buf[off+recordHdr : off+recordHdr+uint64(kl)]
		db.mt.add(key, buf[off+recordHdr+uint64(kl):off+recordHdr+uint64(kl+vl)], seq, tomb)
		db.memBytes += recordHdr + kl + vl
		if seq > db.seq {
			db.seq = seq
		}
		off += uint64(recordHdr + kl + vl)
	}
	db.walOff = off
	return db, nil
}

// WAL exposes the log region and its valid length (for Recover).
func (db *DB) WAL() (*memspace.Region, uint64) { return db.wal, db.walOff }

// Runs exposes the current run regions per level (the manifest a real
// system would persist).
func (db *DB) Runs() [][]*memspace.Region {
	out := make([][]*memspace.Region, len(db.levels))
	for li, level := range db.levels {
		for _, t := range level {
			out[li] = append(out[li], t.region)
		}
	}
	return out
}
