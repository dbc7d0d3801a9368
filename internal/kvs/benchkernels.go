package kvs

import (
	"encoding/binary"
	"fmt"

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

// benchKeyTable formats the kernel's keys ("user%014d", the
// experiments' 18 B keys) into one flat buffer, so the kernels time the
// store and not the formatter.
func benchKeyTable() [][]byte {
	const keyBytes = 18
	flat := make([]byte, 0, benchKeys*keyBytes)
	keys := make([][]byte, benchKeys)
	for i := range keys {
		flat = fmt.Appendf(flat, "user%014d", i)
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
	keys := benchKeyTable()
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
	keys := benchKeyTable()
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
