package kvs

import (
	"encoding/binary"

	"rambda/internal/memspace"
)

// This file holds the hash store's micro kernels cmd/rambda-bench
// times: the preload every Figs. 8-10 point pays (fresh-key inserts
// into a store sized like the experiments'), and the GET hit that
// serves most of their requests.

const (
	// benchKeys is the kernel store's key count; its index and pool are
	// sized per key the way the experiments size theirs.
	benchKeys       = 1 << 16
	benchValueBytes = 46 // with an 18 B key, the paper's 64 B pair
)

// benchStore allocates an empty kernel store.
func benchStore() *Store {
	return New(memspace.New(), Config{
		Buckets:   benchKeys / 4,
		PoolBytes: benchKeys * 160,
		Kind:      memspace.KindDRAM,
	})
}

// benchKeyTable formats keys first..first+n-1 ("user%014d", the
// experiments' 18 B keys) into one flat buffer, so the kernels time the
// store and not the formatter. It formats digit by digit: fmt would
// allocate per key, and with few ops per run those set-up allocations
// would show in a kernel's allocs/op.
func benchKeyTable(first, n int) [][]byte {
	const keyBytes = 18
	flat := make([]byte, 0, n*keyBytes)
	keys := make([][]byte, n)
	for i := range keys {
		flat = append(flat, "user00000000000000"...)
		for p, v := len(flat)-1, first+i; v > 0; p, v = p-1, v/10 {
			flat[p] = byte('0' + v%10)
		}
		keys[i] = flat[i*keyBytes : (i+1)*keyBytes]
	}
	return keys
}

// preloadBench fills s with keys, each value's first eight bytes being
// the key's index, as the experiments' preload does.
func preloadBench(s *Store, keys [][]byte, val []byte, trace []Access) []Access {
	for i, k := range keys {
		binary.LittleEndian.PutUint64(val, uint64(i))
		var err error
		if trace, err = s.PutInto(trace[:0], k, val); err != nil {
			panic(err)
		}
	}
	return trace
}

// BenchPreload inserts n fresh keys, starting a new store every
// benchKeys inserts, and returns a checksum so the work cannot be
// optimized away. One op is one PutInto of an absent key plus its share
// of the store allocation.
func BenchPreload(n int) int64 {
	keys := benchKeyTable(0, benchKeys)
	val := make([]byte, benchValueBytes)
	var trace []Access
	var sum int64
	for done := 0; done < n; done += benchKeys {
		s := benchStore()
		trace = preloadBench(s, keys[:min(benchKeys, n-done)], val, trace)
		sum += s.Stats().Puts
	}
	return sum
}

// BenchGetHit runs n GETs of present keys against a preloaded store
// and returns a checksum. One op is one GetInto: hash, bucket probe,
// item read and value copy.
func BenchGetHit(n int) int64 {
	keys := benchKeyTable(0, benchKeys)
	s := benchStore()
	val := make([]byte, benchValueBytes)
	trace := preloadBench(s, keys, val, nil)
	var sum int64
	for i := 0; i < n; i++ {
		var ok bool
		val, trace, ok = s.GetInto(val[:0], trace[:0], keys[i%benchKeys])
		if !ok {
			panic("kvs bench: preloaded key missing")
		}
		sum += int64(len(trace))
	}
	return sum
}

// benchRoundPuts is the number of PUTs one KVSCheckoutRollback op
// applies between rollbacks.
const benchRoundPuts = 64

// BenchCheckoutRollback times the store side of a pooled experiment
// point: a preloaded store is checkpointed once, then each op applies
// 64 mixed PUTs — in-place updates, size-class reallocations and
// fresh-key inserts, in a fixed rotation — and rolls them back. It
// returns a checksum of the trace lengths. Once the journal and the
// free lists reach their high-water mark it allocates nothing.
func BenchCheckoutRollback(n int) int64 {
	keys := benchKeyTable(0, benchKeys)
	s := benchStore()
	val := make([]byte, 4*benchValueBytes)
	trace := preloadBench(s, keys, val[:benchValueBytes], nil)
	s.Checkpoint()
	fresh := benchKeyTable(benchKeys, benchRoundPuts/4)
	var sum int64
	for op := 0; op < n; op++ {
		for i := 0; i < benchRoundPuts; i++ {
			key, v := keys[(op*benchRoundPuts+i*7919)%benchKeys], val[:benchValueBytes]
			switch i % 4 {
			case 1:
				v = val // a larger size class: the item moves
			case 3:
				key = fresh[i/4]
			}
			var err error
			if trace, err = s.PutInto(trace[:0], key, v); err != nil {
				panic(err)
			}
			sum += int64(len(trace))
		}
		s.Rollback()
	}
	return sum
}
