package kvs

import "rambda/internal/memspace"

// Backend is the pluggable storage engine behind the KVS serving path:
// the MICA-style hash [Store] and the tiered LSM tree (internal/lsm)
// both implement it, and [ApplyScratch] dispatches decoded wire
// requests over it, so every serving scenario — the shared experiment
// driver, scale-out shard chains, user applications — can swap engines
// without touching the wire or timing layers.
//
// # The access-trace contract
//
// Backends are functional state machines over the simulated address
// space: each operation performs its real byte movement immediately and
// appends one [Access] per memory touch (address, size, read/write) to
// the caller's trace. The serving handler replays the trace through its
// coherent datapath (AppCtx.Read/Write), which dispatches on the
// address's region kind — DRAM, NVM, accelerator-local — so an engine
// whose structures live in NVM regions charges NVM bandwidth without
// the handler knowing which engine it is. Traces must be deterministic
// for identical state and arguments.
//
// # Ownership and validity (the §8 discipline)
//
// Follows the package rules: every method appends into caller-owned
// buffers and returns the grown slices; the returned slices alias those
// buffers and are valid only until the caller reuses them; the backend
// never retains caller memory (keys/values are copied into the
// simulated space before returning). Passing back the previous result
// re-sliced to [:0] makes the steady state allocation-free where the
// engine supports it (the hash Store's guards enforce zero allocations;
// the LSM tree allocates on version inserts by design).
type Backend interface {
	// GetInto looks up key, appending the value to dst and the accesses
	// to trace; ok reports presence.
	GetInto(dst []byte, trace []Access, key []byte) ([]byte, []Access, bool)
	// PutInto inserts or updates key, appending the accesses to trace.
	PutInto(trace []Access, key, val []byte) ([]Access, error)
	// DeleteInto removes key, appending the accesses to trace; ok
	// reports whether it was present.
	DeleteInto(trace []Access, key []byte) ([]Access, bool)
	// ScanInto visits up to limit live pairs starting at start
	// (inclusive; descending key order when reverse). Each visited
	// pair's key and value bytes are appended back-to-back onto buf and
	// located by a ScanPair appended to pairs; accesses go to trace.
	// Hash engines scan in bucket order (see Store.ScanInto), ordered
	// engines in key order.
	ScanInto(buf []byte, pairs []ScanPair, trace []Access,
		start []byte, limit int, reverse bool) ([]byte, []ScanPair, []Access)
}

// Backend conformance of the hash store (the LSM tree asserts its own
// in internal/lsm, which imports this package).
var _ Backend = (*Store)(nil)

// ScanPair locates one key-value pair inside a flat scan buffer: the
// key's KeyLen bytes start at KeyOff and the value's ValLen bytes
// follow immediately. Offsets (rather than sub-slices) survive the
// buffer reallocating as it grows.
type ScanPair struct {
	KeyOff int
	KeyLen int
	ValLen int
}

// Key returns the pair's key bytes within buf.
func (p ScanPair) Key(buf []byte) []byte { return buf[p.KeyOff : p.KeyOff+p.KeyLen] }

// Val returns the pair's value bytes within buf.
func (p ScanPair) Val(buf []byte) []byte {
	return buf[p.KeyOff+p.KeyLen : p.KeyOff+p.KeyLen+p.ValLen]
}

// ScanInto implements Backend for the hash store. A hash index has no
// key order, so the scan is a deterministic bucket-order cursor (the
// same shape as Redis SCAN): buckets are visited from the start key's
// bucket onward (backward when reverse), wrapping at the table edge,
// and every live item in a visited bucket — chained buckets included —
// is emitted until limit pairs are gathered or the whole table has been
// walked. Each visited bucket charges one bucket read and each emitted
// item one item read. Key-ordered scans are what the LSM backend is
// for; this exists so the wire op is total over backends.
func (s *Store) ScanInto(buf []byte, pairs []ScanPair, trace []Access,
	start []byte, limit int, reverse bool) ([]byte, []ScanPair, []Access) {
	if limit <= 0 {
		return buf, pairs, trace
	}
	nBuckets := int(s.mask) + 1
	first := 0
	if len(start) > 0 {
		first = int(hashKey(start) & s.mask)
	}
	emitted := 0
	for step := 0; step < nBuckets && emitted < limit; step++ {
		bi := first + step
		if reverse {
			bi = first - step
		}
		bkt := s.index.Base + memspace.Addr(((uint64(bi)+uint64(nBuckets))%uint64(nBuckets))*bucketBytes)
		for {
			trace = append(trace, Access{Addr: bkt, Bytes: bucketBytes})
			b := s.bucket(bkt)
			for i := 0; i < slotsPerBkt && emitted < limit; i++ {
				tag, addr := slot(b, i)
				if tag == 0 {
					continue
				}
				k, v := s.readItem(addr)
				trace = append(trace, Access{Addr: addr, Bytes: itemHdrBytes + len(k) + len(v)})
				keyOff := len(buf)
				buf = append(buf, k...)
				buf = append(buf, v...)
				pairs = append(pairs, ScanPair{KeyOff: keyOff, KeyLen: len(k), ValLen: len(v)})
				emitted++
			}
			ct, next := slot(b, slotsPerBkt)
			if ct != chainTag || emitted >= limit {
				break
			}
			bkt = next
		}
	}
	return buf, pairs, trace
}
