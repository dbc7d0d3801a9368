// Package kvs implements the in-memory key-value store of paper
// Sec. IV-A: a MICA-style set-associative, chained hash index over a
// slab-allocated item pool, living entirely inside the simulated
// physical address space so every operation yields the exact memory
// access trace (addresses, sizes, read/write) that the CPU, SmartNIC,
// and RAMBDA accelerator models charge to their respective datapaths.
// Matching MICA and KV-Direct, a GET costs three memory accesses on
// average and a PUT four.
//
// # API forms and buffer ownership
//
// The request-path API is the append/Into family —
// [Store.GetInto], [Store.PutInto], [Store.DeleteInto], [ApplyScratch],
// [AppendRequest], [AppendResponse]. Each takes caller-owned
// destination buffers (value bytes, access trace, wire frames), appends
// into them, and returns the grown slices; pass the returned slice back
// re-sliced to [:0] and the steady state allocates nothing once
// capacities reach the workload's high-water mark.
//
// Ownership and validity rules:
//
//   - Returned slices alias the buffers the caller passed in (or the
//     [Scratch]); they are valid only until the next call that reuses
//     those buffers. Retention sites (caches, dedup stores, history
//     logs) must copy.
//   - The store never retains caller buffers: key/value bytes are
//     copied into the simulated address space before the call returns,
//     so request buffers may be reused immediately.
package kvs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"rambda/internal/memspace"
	"rambda/internal/obs"
)

// Access is one memory access of an operation's trace.
type Access struct {
	Addr  memspace.Addr
	Bytes int
	Write bool
}

const (
	// bucketBytes is one index bucket: 7 slots + 1 chain pointer, 8 B
	// each — a single cacheline, as in MICA.
	bucketBytes  = 64
	slotsPerBkt  = 7
	slotBytes    = 8
	itemHdrBytes = 8 // 2B keyLen, 4B valLen, 2B reserved
)

// Config sizes the store.
type Config struct {
	// Buckets is the number of index buckets (rounded up to a power of
	// two).
	Buckets int
	// PoolBytes is the item pool capacity.
	PoolBytes uint64
	// Kind places the store's regions (DRAM for Fig. 8, accel-local for
	// RAMBDA-LD/LH).
	Kind memspace.Kind
}

// Store is the key-value store.
type Store struct {
	space *memspace.Space
	index *memspace.Region
	pool  *memspace.Region
	slab  *slabAllocator

	mask uint64

	gets, puts, deletes, misses int64
	chained                     int64 // overflow buckets allocated
}

// New allocates and initializes a store inside the given space.
func New(space *memspace.Space, cfg Config) *Store {
	if cfg.Buckets <= 0 || cfg.PoolBytes == 0 {
		panic("kvs: bad config")
	}
	n := 1
	for n < cfg.Buckets {
		n <<= 1
	}
	index := space.Alloc("kvs-index", uint64(n)*bucketBytes, cfg.Kind)
	pool := space.Alloc("kvs-pool", cfg.PoolBytes, cfg.Kind)
	return &Store{
		space: space,
		index: index,
		pool:  pool,
		slab:  newSlabAllocator(pool.Range),
		mask:  uint64(n - 1),
	}
}

// IndexRange and PoolRange expose the store's memory layout (for MR
// registration and region-kind experiments).
func (s *Store) IndexRange() memspace.Range { return s.index.Range }
func (s *Store) PoolRange() memspace.Range  { return s.pool.Range }

// hashKey returns the 64-bit FNV-1a hash of key.
func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// Hash64 exposes the store's 64-bit FNV-1a key hash. Cluster-level
// routing (internal/scaleout's consistent-hash ring and hot-key
// counters) shards on exactly the hash the index uses, so a key's
// placement decision and its bucket choice never disagree.
func Hash64(key []byte) uint64 { return hashKey(key) }

func (s *Store) bucketAddr(h uint64) memspace.Addr {
	return s.index.Base + memspace.Addr((h&s.mask)*bucketBytes)
}

// tag is the in-slot partial hash; 0 means empty, chainTag marks the
// chain pointer slot.
func tagOf(h uint64) uint16 {
	t := uint16(h >> 48)
	if t == 0 || t == chainTag {
		t = 1
	}
	return t
}

const chainTag = 0xFFFF

// zeroBucket is the shared zero-fill source for freshly chained
// buckets; memspace.Write copies from it, so sharing is safe.
var zeroBucket [bucketBytes]byte

// slot helpers: a slot is [2B tag][6B item address].
func (s *Store) readSlot(bkt memspace.Addr, i int) (uint16, memspace.Addr) {
	raw := s.space.Slice(bkt+memspace.Addr(i*slotBytes), slotBytes)
	tag := binary.LittleEndian.Uint16(raw[0:2])
	var a [8]byte
	copy(a[:6], raw[2:8])
	addr := memspace.Addr(binary.LittleEndian.Uint64(a[:]))
	return tag, addr
}

func (s *Store) writeSlot(bkt memspace.Addr, i int, tag uint16, addr memspace.Addr) {
	raw := s.space.Slice(bkt+memspace.Addr(i*slotBytes), slotBytes)
	binary.LittleEndian.PutUint16(raw[0:2], tag)
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], uint64(addr))
	copy(raw[2:8], a[:6])
}

// writeItem serializes a key-value pair at addr.
func (s *Store) writeItem(addr memspace.Addr, key, val []byte) {
	buf := s.space.Slice(addr, itemHdrBytes+len(key)+len(val))
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(val)))
	copy(buf[itemHdrBytes:], key)
	copy(buf[itemHdrBytes+len(key):], val)
}

// readItem deserializes the item at addr.
func (s *Store) readItem(addr memspace.Addr) (key, val []byte) {
	hdr := s.space.Slice(addr, itemHdrBytes)
	kl := int(binary.LittleEndian.Uint16(hdr[0:2]))
	vl := int(binary.LittleEndian.Uint32(hdr[2:6]))
	body := s.space.Slice(addr+itemHdrBytes, kl+vl)
	return body[:kl], body[kl : kl+vl]
}

func itemBytes(key, val []byte) int { return itemHdrBytes + len(key) + len(val) }

// GetInto looks up key, appending the value bytes to dst and the
// memory accesses to trace. Both returned slices retain their grown
// capacity, so passing back dst[:0]/trace[:0] from the previous call
// makes the steady state allocation-free. On a miss the returned value
// slice is dst unextended.
func (s *Store) GetInto(dst []byte, trace []Access, key []byte) ([]byte, []Access, bool) {
	s.gets++
	h := hashKey(key)
	tag := tagOf(h)
	bkt := s.bucketAddr(h)
	for {
		trace = append(trace, Access{Addr: bkt, Bytes: bucketBytes})
		for i := 0; i < slotsPerBkt; i++ {
			t, addr := s.readSlot(bkt, i)
			if t != tag {
				continue
			}
			k, v := s.readItem(addr)
			trace = append(trace, Access{Addr: addr, Bytes: itemHdrBytes + len(k)})
			if !bytes.Equal(k, key) {
				continue // tag collision
			}
			trace = append(trace, Access{Addr: addr + memspace.Addr(itemHdrBytes+len(k)), Bytes: len(v)})
			return append(dst, v...), trace, true
		}
		ct, next := s.readSlot(bkt, slotsPerBkt)
		if ct != chainTag {
			s.misses++
			return dst, trace, false
		}
		bkt = next
	}
}

// PutInto inserts or updates key, appending the memory accesses to the
// caller-provided trace (capacity retained across calls). The whole
// chain is searched for the key before inserting so a key never appears
// twice.
func (s *Store) PutInto(trace []Access, key, val []byte) ([]Access, error) {
	s.puts++
	h := hashKey(key)
	tag := tagOf(h)
	bkt := s.bucketAddr(h)

	var freeBkt memspace.Addr
	freeSlot := -1
	lastBkt := bkt
	for {
		trace = append(trace, Access{Addr: bkt, Bytes: bucketBytes})
		for i := 0; i < slotsPerBkt; i++ {
			t, addr := s.readSlot(bkt, i)
			if t == 0 {
				if freeSlot < 0 {
					freeBkt, freeSlot = bkt, i
				}
				continue
			}
			if t != tag {
				continue
			}
			k, v := s.readItem(addr)
			trace = append(trace, Access{Addr: addr, Bytes: itemHdrBytes + len(k)})
			if !bytes.Equal(k, key) {
				continue // tag collision
			}
			// Update in place when the size class matches; reallocate
			// otherwise.
			oldClass, _ := classFor(itemBytes(k, v))
			newClass, err := classFor(itemBytes(key, val))
			if err != nil {
				return trace, err
			}
			if oldClass != newClass {
				s.slab.release(addr, itemBytes(k, v))
				addr, err = s.slab.alloc(itemBytes(key, val))
				if err != nil {
					return trace, err
				}
				s.writeSlot(bkt, i, tag, addr)
				trace = append(trace, Access{Addr: bkt, Bytes: slotBytes, Write: true})
			}
			s.writeItem(addr, key, val)
			trace = append(trace, Access{Addr: addr, Bytes: itemBytes(key, val), Write: true})
			return trace, nil
		}
		ct, next := s.readSlot(bkt, slotsPerBkt)
		if ct != chainTag {
			lastBkt = bkt
			break
		}
		bkt = next
	}

	// Not present: insert into the first free slot, growing the chain
	// if every bucket is full (paper: "another bucket with the same
	// format will be allocated and linked by a pointer").
	if freeSlot < 0 {
		nb, err := s.slab.alloc(bucketBytes)
		if err != nil {
			return trace, fmt.Errorf("kvs: chain allocation failed: %w", err)
		}
		s.space.Write(nb, zeroBucket[:])
		s.writeSlot(lastBkt, slotsPerBkt, chainTag, nb)
		trace = append(trace, Access{Addr: lastBkt, Bytes: slotBytes, Write: true})
		s.chained++
		freeBkt, freeSlot = nb, 0
	}
	addr, err := s.slab.alloc(itemBytes(key, val))
	if err != nil {
		return trace, err
	}
	trace = append(trace, Access{Addr: addr, Bytes: slotBytes, Write: true}) // allocator metadata
	s.writeItem(addr, key, val)
	trace = append(trace, Access{Addr: addr, Bytes: itemBytes(key, val), Write: true})
	s.writeSlot(freeBkt, freeSlot, tag, addr)
	trace = append(trace, Access{Addr: freeBkt, Bytes: slotBytes, Write: true})
	return trace, nil
}

// DeleteInto removes key, appending the memory accesses to the
// caller-provided trace (capacity retained across calls); ok reports
// whether the key was present.
func (s *Store) DeleteInto(trace []Access, key []byte) ([]Access, bool) {
	s.deletes++
	h := hashKey(key)
	tag := tagOf(h)
	bkt := s.bucketAddr(h)
	for {
		trace = append(trace, Access{Addr: bkt, Bytes: bucketBytes})
		for i := 0; i < slotsPerBkt; i++ {
			t, addr := s.readSlot(bkt, i)
			if t != tag {
				continue
			}
			k, v := s.readItem(addr)
			trace = append(trace, Access{Addr: addr, Bytes: itemHdrBytes + len(k)})
			if !bytes.Equal(k, key) {
				continue
			}
			s.slab.release(addr, itemBytes(k, v))
			s.writeSlot(bkt, i, 0, 0)
			trace = append(trace, Access{Addr: bkt, Bytes: slotBytes, Write: true})
			return trace, true
		}
		ct, next := s.readSlot(bkt, slotsPerBkt)
		if ct != chainTag {
			return trace, false
		}
		bkt = next
	}
}

// Stats summarizes store activity.
type Stats struct {
	Gets, Puts, Deletes, Misses int64
	ChainedBuckets              int64
	LiveItems                   int64
}

// Stats returns activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Gets: s.gets, Puts: s.puts, Deletes: s.deletes, Misses: s.misses,
		ChainedBuckets: s.chained, LiveItems: s.slab.liveBlocks(),
	}
}

// RegisterMetrics exposes the store's activity counters as gauges under
// prefix, including the derived GET hit rate.
func (s *Store) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".gets", func() float64 { return float64(s.gets) })
	reg.Gauge(prefix+".puts", func() float64 { return float64(s.puts) })
	reg.Gauge(prefix+".misses", func() float64 { return float64(s.misses) })
	reg.Gauge(prefix+".live_items", func() float64 { return float64(s.slab.liveBlocks()) })
	reg.Gauge(prefix+".hit_rate", func() float64 {
		if s.gets == 0 {
			return 0
		}
		return float64(s.gets-s.misses) / float64(s.gets)
	})
}
