package lsm

import "unsafe"

// memtable is the DRAM write buffer: one entry per key, the key's
// latest write, in a flat array. Keys and values are interned in arena
// blocks that are only ever appended to, so an index key (a view of its
// interned bytes) is never rewritten, even after a flush resets the
// index and the entry array for reuse. Between flushes a put allocates
// nothing once the array, the map and the current block have grown.
type memtable struct {
	index   map[string]int32 // key -> its entry
	entries []entry
	// block is the current arena block: interned bytes are appended
	// within its capacity, and a full block is replaced, never reused.
	block      []byte
	blockBytes int
}

// entry is a key's latest write.
type entry struct {
	key  string // interned
	val  []byte // interned; nil for a tombstone or an empty value
	seq  uint64
	tomb bool
}

// maxArenaBlock caps one arena block; the memtable holds about
// MemtableBytes of keys and values between flushes, so smaller trees
// use one block per flush.
const maxArenaBlock = 1 << 20

func newMemtable(cfg Config) *memtable {
	return &memtable{index: make(map[string]int32), blockBytes: min(cfg.MemtableBytes, maxArenaBlock)}
}

// intern copies b into the arena and returns the copy, capped at its
// length. Empty input interns as nil.
func (mt *memtable) intern(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(mt.block)-len(mt.block) < len(b) {
		mt.block = make([]byte, 0, max(mt.blockBytes, len(b)))
	}
	off := len(mt.block)
	mt.block = append(mt.block, b...)
	return mt.block[off : off+len(b) : off+len(b)]
}

// add records key's latest write, replacing its entry in place.
func (mt *memtable) add(key, val []byte, seq uint64, tomb bool) {
	e := entry{val: mt.intern(val), seq: seq, tomb: tomb}
	if i, ok := mt.index[string(key)]; ok {
		e.key = mt.entries[i].key
		mt.entries[i] = e
		return
	}
	e.key = view(mt.intern(key))
	mt.entries = append(mt.entries, e)
	mt.index[e.key] = int32(len(mt.entries) - 1)
}

// get returns key's entry.
func (mt *memtable) get(key string) (entry, bool) {
	i, ok := mt.index[key]
	if !ok {
		return entry{}, false
	}
	return mt.entries[i], true
}

// reset empties the memtable for reuse, keeping the index's and the
// entry array's storage. The arena block keeps its free tail: bytes
// already handed out stay as they are.
func (mt *memtable) reset() {
	clear(mt.index)
	clear(mt.entries) // drop the views, so the old blocks can be collected
	mt.entries = mt.entries[:0]
}

// view is b as a string without copying, for lookups that do not
// retain the key and for keys whose bytes are never rewritten.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
