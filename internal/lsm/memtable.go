package lsm

import "unsafe"

// memtable is one generation of the DRAM write buffer. Each key's
// versions are linked newest-first through one flat array, and keys and
// values are interned in arena blocks that are only ever appended to:
// a view handed to a reader (a scanned key, a returned value) is never
// rewritten, even after the generation is flushed and its index and
// version array are reused. Between flushes a put allocates nothing
// once the array, the map and the current block have grown.
type memtable struct {
	index    map[string]int32 // key -> its newest version
	versions []version
	// block is the current arena block: interned bytes are appended
	// within its capacity, and a full block is replaced, never reused.
	block      []byte
	blockBytes int
	// pins counts the snapshots reading this generation; a pinned
	// generation is never reset.
	pins int
}

// version is one write of a key. Versions of a key chain through prev
// (older), so the newest visible one is a walk from the index entry.
type version struct {
	key  string // interned; shared by every version of the key
	val  []byte // interned; nil for a tombstone or an empty value
	seq  uint64
	tomb bool
	prev int32 // next older version, or -1
}

// maxArenaBlock caps one arena block; a generation holds about
// MemtableBytes of keys and values, so smaller trees use one block per
// generation.
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

// add records a new newest version of key.
func (mt *memtable) add(key, val []byte, seq uint64, tomb bool) {
	v := version{val: mt.intern(val), seq: seq, tomb: tomb, prev: -1}
	if i, ok := mt.index[string(key)]; ok {
		v.key, v.prev = mt.versions[i].key, i
	} else {
		v.key = view(mt.intern(key))
	}
	mt.versions = append(mt.versions, v)
	// Assign through the interned key: a map overwrite stores the key
	// it is given.
	mt.index[v.key] = int32(len(mt.versions) - 1)
}

// newest returns key's newest version with seq <= maxSeq.
func (mt *memtable) newest(key string, maxSeq uint64) (version, bool) {
	i, ok := mt.index[key]
	if !ok {
		return version{}, false
	}
	for ; i >= 0; i = mt.versions[i].prev {
		if v := mt.versions[i]; v.seq <= maxSeq {
			return v, true
		}
	}
	return version{}, false
}

// reset empties the generation for reuse, keeping the index's and the
// version array's storage. The arena block keeps its free tail: bytes
// already handed out stay as they are.
func (mt *memtable) reset() {
	clear(mt.index)
	clear(mt.versions) // drop the views, so the old blocks can be collected
	mt.versions = mt.versions[:0]
}

// view is b as a string without copying, for lookups that do not
// retain the key and for keys whose bytes are never rewritten.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// bytesOf is the inverse of view: s's bytes, which must not be written.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }
