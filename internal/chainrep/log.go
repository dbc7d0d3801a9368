package chainrep

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Tuple is one write of a transaction: (data, len, offset), the format
// of paper Sec. IV-B's log entries.
type Tuple struct {
	Offset uint32
	Data   []byte
}

// RedoLog is the per-replica transaction log: a ring of entries in NVM
// serving as both the inter-machine request buffer and the redo log for
// failure recovery ("the ring buffers are allocated in the NVM as the
// redo-log"). One entry holds a whole multi-tuple transaction; its
// first byte is the tuple count.
type RedoLog struct {
	space  *memspace.Space
	mem    *memdev.System
	region *memspace.Region

	entrySize int
	entries   int
	tail      int
	appended  int64

	// pad is Append's reusable zero-padded staging buffer (entrySize
	// bytes; memspace.Write copies it out before Append returns).
	pad []byte
	// tuples is Replay's reusable decode buffer.
	tuples []Tuple
}

// tupleHdr is [4B offset][2B len].
const tupleHdr = 6

// EntrySize returns the encoded size of a log entry holding n tuples of
// valueBytes each — for sizing log geometry.
func EntrySize(n, valueBytes int) int { return 1 + n*(tupleHdr+valueBytes) }

// NewRedoLog allocates a log of `entries` fixed-size entries in NVM.
func NewRedoLog(space *memspace.Space, mem *memdev.System, entries, entrySize int) *RedoLog {
	if entries <= 0 || entrySize < 1+tupleHdr {
		panic("chainrep: bad log geometry")
	}
	region := space.Alloc("chainrep-log", uint64(entries*entrySize), memspace.KindNVM)
	return &RedoLog{
		space: space, mem: mem, region: region,
		entrySize: entrySize, entries: entries,
	}
}

// Range returns the log region (registered to the RNIC without TPH —
// adaptive DDIO keeps NVM writes out of the cache).
func (l *RedoLog) Range() memspace.Range { return l.region.Range }

// EntryBytes returns the encoded size of a log entry holding exactly
// these tuples — for wire-cost accounting without encoding.
func EntryBytes(tuples []Tuple) int {
	size := 1
	for _, t := range tuples {
		size += tupleHdr + len(t.Data)
	}
	return size
}

// EncodeEntry serializes tuples into log-entry format in a fresh
// buffer.
func EncodeEntry(tuples []Tuple) []byte {
	return AppendEntry(nil, tuples)
}

// AppendEntry serializes tuples onto dst and returns the extended
// slice; reusing the returned buffer (re-sliced to [:0]) makes the
// steady-state encode allocation-free.
func AppendEntry(dst []byte, tuples []Tuple) []byte {
	if len(tuples) == 0 || len(tuples) > 255 {
		panic(fmt.Sprintf("chainrep: entry with %d tuples", len(tuples)))
	}
	dst = append(dst, byte(len(tuples)))
	var hdr [tupleHdr]byte
	for _, t := range tuples {
		binary.LittleEndian.PutUint32(hdr[0:4], t.Offset)
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(t.Data)))
		dst = append(dst, hdr[:]...)
		dst = append(dst, t.Data...)
	}
	return dst
}

// DecodeEntryInto parses a log entry into dst's backing array (grown
// as needed) and returns the tuples. Each tuple's Data aliases b, so
// the tuples are valid only while b is; with a reused dst the decode
// allocates nothing.
func DecodeEntryInto(dst []Tuple, b []byte) ([]Tuple, error) {
	if len(b) < 1 {
		return dst, fmt.Errorf("chainrep: empty entry")
	}
	n := int(b[0])
	if n == 0 {
		return dst, fmt.Errorf("chainrep: zero-tuple entry")
	}
	off := 1
	tuples := dst[:0]
	for i := 0; i < n; i++ {
		if off+tupleHdr > len(b) {
			return tuples, fmt.Errorf("chainrep: truncated tuple header")
		}
		o := binary.LittleEndian.Uint32(b[off : off+4])
		dl := int(binary.LittleEndian.Uint16(b[off+4 : off+6]))
		if off+tupleHdr+dl > len(b) {
			return tuples, fmt.Errorf("chainrep: truncated tuple data")
		}
		data := b[off+tupleHdr : off+tupleHdr+dl : off+tupleHdr+dl]
		tuples = append(tuples, Tuple{Offset: o, Data: data})
		off += tupleHdr + dl
	}
	return tuples, nil
}

// Append persists an encoded entry at the tail, charging a sequential
// NVM write, and returns the completion time.
func (l *RedoLog) Append(now sim.Time, entry []byte) sim.Time {
	if len(entry) > l.entrySize {
		panic(fmt.Sprintf("chainrep: entry %d exceeds log entry size %d", len(entry), l.entrySize))
	}
	addr := l.region.Base + memspace.Addr(l.tail*l.entrySize)
	at := l.mem.NVM.WriteSequential(now, len(entry))
	if cap(l.pad) < l.entrySize {
		l.pad = make([]byte, l.entrySize)
	}
	padded := l.pad[:l.entrySize]
	n := copy(padded, entry)
	// Zero the remainder so stale bytes never decode.
	for i := n; i < len(padded); i++ {
		padded[i] = 0
	}
	l.space.Write(addr, padded)
	l.tail = (l.tail + 1) % l.entries
	l.appended++
	return at
}

// Appended reports the number of entries written.
func (l *RedoLog) Appended() int64 { return l.appended }

// Replay re-applies every live log entry to the store in append
// order — the redo path after a crash. It returns the number of
// transactions replayed. Entries decode in place from the log region:
// each tuple's data is a view of the log bytes, which the store's
// Write copies out.
func (l *RedoLog) Replay(store *Store) (int, error) {
	n := int(l.appended)
	if n > l.entries {
		n = l.entries
	}
	start := (l.tail - n + l.entries) % l.entries
	replayed := 0
	for i := 0; i < n; i++ {
		idx := (start + i) % l.entries
		raw := l.region.Slice(l.region.Base+memspace.Addr(idx*l.entrySize), l.entrySize)
		tuples, err := DecodeEntryInto(l.tuples, raw)
		l.tuples = tuples
		if err != nil {
			return replayed, fmt.Errorf("chainrep: replay entry %d: %w", idx, err)
		}
		for _, t := range tuples {
			store.Write(0, t.Offset, t.Data)
		}
		replayed++
	}
	return replayed, nil
}
