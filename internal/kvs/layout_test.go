package kvs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"rambda/internal/memspace"
)

// layoutPin is the digest TestStoreLayoutPinned computes. It was
// recorded on the store before the one-slice-per-bucket probe path, so
// a mismatch means a byte or an access moved. Never regenerate it to
// make the test pass: the store's layout and traces are what every
// KVS figure golden is built on.
const layoutPin = "4a953eba6fc41f59b99af2bb300bffa41928cd61c88727ff9aecc5107a99b123"

// splitmix64 is the test's self-contained PRNG, so the op stream cannot
// shift with any other package.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// collidingKeys returns count pairs of distinct keys that share both
// the in-slot tag and the bucket of a store with mask, so the probe
// walks past tag collisions.
func collidingKeys(mask uint64, count int) [][]byte {
	seen := map[uint64][]byte{}
	var out [][]byte
	for i := 0; len(out) < 2*count; i++ {
		k := []byte(fmt.Sprintf("coll%06d", i))
		h := hashKey(k)
		id := uint64(tagOf(h))<<32 | h&mask
		if prev, ok := seen[id]; ok {
			out = append(out, prev, k)
			delete(seen, id)
			continue
		}
		seen[id] = k
	}
	return out
}

// hashAccesses folds a trace into the digest.
func hashAccesses(h hash.Hash, trace []Access) {
	for _, a := range trace {
		fmt.Fprintf(h, "%x:%d:%t;", uint64(a.Addr), a.Bytes, a.Write)
	}
}

// TestStoreLayoutPinned drives a small, heavily chained store through a
// seeded mix of inserts, in-place updates, size-class reallocations,
// tag collisions, deletes, re-inserts, oversized values and bucket-order
// scans, then hashes the index and pool bytes, the slab state, Stats
// and every returned value, status and access trace.
func TestStoreLayoutPinned(t *testing.T) {
	space := memspace.New()
	s := New(space, Config{Buckets: 8, PoolBytes: 1 << 20, Kind: memspace.KindDRAM})
	keys := collidingKeys(s.mask, 4)
	for i := 0; i < 160; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user%0*d", 1+i%24, i)))
	}

	d := sha256.New()
	rng := splitmix64(16)
	val := make([]byte, 70<<10)
	for i := range val {
		val[i] = byte(i * 7)
	}
	var dst []byte
	var pairs []ScanPair
	var trace []Access
	for op := 0; op < 6000; op++ {
		key := keys[rng.intn(len(keys))]
		switch r := rng.intn(100); {
		case r < 45:
			n := rng.intn(300)
			if rng.intn(200) == 0 {
				n = len(val) // over the largest size class
			}
			val[0] = byte(op)
			var err error
			trace, err = s.PutInto(trace[:0], key, val[:n])
			fmt.Fprintf(d, "P%s/%d/%v|", key, n, err)
		case r < 73:
			var ok bool
			dst, trace, ok = s.GetInto(dst[:0], trace[:0], key)
			fmt.Fprintf(d, "G%s/%t/%x|", key, ok, dst)
		case r < 78:
			limit, reverse := 1+rng.intn(20), rng.intn(2) == 0
			dst, pairs, trace = s.ScanInto(dst[:0], pairs[:0], trace[:0], key, limit, reverse)
			fmt.Fprintf(d, "S%s/%d/%t/%v/%x|", key, limit, reverse, pairs, dst)
		default:
			var ok bool
			trace, ok = s.DeleteInto(trace[:0], key)
			fmt.Fprintf(d, "D%s/%t|", key, ok)
		}
		hashAccesses(d, trace)
	}

	d.Write(s.index.Bytes())
	d.Write(s.pool.Bytes())
	classes := make([]int, 0, len(s.slab.free))
	for c := range s.slab.free {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		fmt.Fprintf(d, "free%d:%x|", c, s.slab.free[c])
	}
	fmt.Fprintf(d, "next%x alloc%d freed%d stats%+v",
		uint64(s.slab.next), s.slab.allocated, s.slab.freed, s.Stats())

	st := s.Stats()
	if st.ChainedBuckets == 0 || st.Misses == 0 || st.LiveItems == 0 {
		t.Fatalf("op mix too gentle to pin the layout: %+v", st)
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != layoutPin {
		t.Fatalf("store layout digest %s, want %s", got, layoutPin)
	}
}
