package experiments

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"rambda/internal/kvs"
	"rambda/internal/runner"
)

// storeDigest hashes a store's whole state: index and pool bytes,
// allocator state and Stats.
func storeDigest(st *kvs.Store) [sha256.Size]byte {
	h := sha256.New()
	st.HashState(h)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestPooledStoreMatchesFreshPreload runs GET-only and mixed points in
// turn on one pooled store, the way one worker runs a spec: every
// checkout must hand over a store whose state equals a fresh preload's,
// a GET-only point must journal no write, and a mixed point's writes
// must roll back.
func TestPooledStoreMatchesFreshPreload(t *testing.T) {
	cfg := testKVSConfig()
	cfg.Requests = 3000
	sh := cfg.storeShape()
	want := storeDigest(preloadStore(sh))

	points := []kvsPoint{
		kvsAt("SmartNIC", cfg.Batch, cfg.Batch, true, false),
		kvsAt("CPU", cfg.Batch, cfg.Batch, true, true),
		kvsAt("RAMBDA", cfg.Batch, cfg.Batch, true, false),
		kvsAt("SmartNIC", cfg.Batch, cfg.Batch, true, true),
		kvsAt("RAMBDA-LH", cfg.Batch, cfg.Batch, true, true),
	}
	pool := newStorePool(len(points))
	var first *kvs.Store
	for _, p := range points {
		name := fmt.Sprintf("%+v", p)
		st := pool.checkout(sh)
		if first == nil {
			first = st
		} else if st != first {
			t.Fatalf("%s: one worker's points preloaded a second store", name)
		}
		if storeDigest(st) != want {
			t.Fatalf("%s: checked-out store differs from a fresh preload", name)
		}
		p.simulate(cfg, st)
		if n := st.JournalLen(); (n == 0) == p.writes {
			t.Fatalf("%s: %d journaled writes", name, n)
		}
		pool.checkin(sh, st)
	}
	// The last checkin lets the store go without rolling it back; roll
	// it back here to check the last point as well.
	first.Rollback()
	if storeDigest(first) != want {
		t.Fatal("store after the last point's rollback differs from a fresh preload")
	}
}

// TestStorePoolLifetime checks the pool's bookkeeping: a returned
// store is reused by the next checkout of its shape, concurrent
// checkouts get distinct stores, other shapes get their own, and once
// the last planned ask is made the pool keeps nothing.
func TestStorePoolLifetime(t *testing.T) {
	small := storeShape{keys: 64, valueBytes: 46, poolItems: 64}
	other := storeShape{keys: 64, valueBytes: 46, poolItems: 128}
	pool := newStorePool(6)

	a := pool.checkout(small)
	pool.checkin(small, a)
	if b := pool.checkout(small); b != a {
		t.Fatal("sequential checkout preloaded a second store")
	}
	c := pool.checkout(small)
	if c == a {
		t.Fatal("concurrent checkouts share a store")
	}
	if d := pool.checkout(other); d == a || d == c {
		t.Fatal("a different shape reused a store")
	} else {
		pool.checkin(other, d)
	}
	pool.checkin(small, a)
	pool.checkin(small, c)
	if n := len(pool.idle[small]); n != 2 {
		t.Fatalf("%d idle stores after two checkins, want 2", n)
	}
	e := pool.checkout(small) // the fifth of six planned asks
	f := pool.checkout(small) // the last
	if e != c || f != a {
		t.Fatal("checkouts did not reuse the idle stores")
	}
	if pool.idle != nil {
		t.Fatal("pool kept stores after its last planned ask")
	}
	pool.checkin(small, e)
	pool.checkin(small, f)
	if pool.idle != nil {
		t.Fatal("checkin after the last checkout kept a store")
	}
}

// TestStorePoolCountsMemoHits checks that a memo hit counts as one of
// its spec's asks: a spec whose last ask hits the memo lets the store
// its earlier point left idle go, and a spec whose every ask hits never
// preloads and keeps nothing.
func TestStorePoolCountsMemoHits(t *testing.T) {
	cfg := testKVSConfig()
	cfg.Keys = 1 << 12
	cfg.Requests = 400
	memo := newKVSMemo()
	a := fig8Point(cfg, "RAMBDA", false, false)
	b := fig8Point(cfg, "RAMBDA", true, false)

	first := newStorePool(3)
	memo.ask(cfg, first, a)
	memo.ask(cfg, first, b)
	if n := len(first.idle[cfg.storeShape()]); n != 1 {
		t.Fatalf("%d idle stores with an ask left, want 1", n)
	}
	memo.ask(cfg, first, a) // the last ask, a memo hit
	if first.idle != nil {
		t.Fatal("pool kept its store after its last ask hit the memo")
	}

	hits := newStorePool(2)
	memo.ask(cfg, hits, b)
	memo.ask(cfg, hits, a)
	if hits.idle != nil {
		t.Fatal("pool whose every ask hit the memo keeps an idle map")
	}
}

// TestStorePoolConcurrentCheckouts runs a spec's worth of points on
// four workers: every checkout must see a fresh preload's state while
// other workers write to and roll back their own stores, and no more
// stores may exist than workers.
func TestStorePoolConcurrentCheckouts(t *testing.T) {
	const workers, points = 4, 40
	sh := storeShape{keys: 256, valueBytes: 46, poolItems: 512}
	want := storeDigest(preloadStore(sh))
	pool := newStorePool(points)
	var mu sync.Mutex
	seen := map[*kvs.Store]bool{}
	jobs := runner.Jobs("pool", points, func(i int) string { return fmt.Sprint(i) }, func(i int) {
		st := pool.checkout(sh)
		if storeDigest(st) != want {
			t.Errorf("point %d: checked-out store differs from a fresh preload", i)
		}
		mu.Lock()
		seen[st] = true
		mu.Unlock()
		var trace []kvs.Access
		val := make([]byte, 46+i)
		for k := 0; k < 300; k++ {
			trace, _ = st.PutInto(trace[:0], appendKVSKey(nil, (k*7+i)%512), val)
		}
		pool.checkin(sh, st)
	})
	if err := runner.Run(workers, jobs); err != nil {
		t.Fatal(err)
	}
	if len(seen) > workers {
		t.Fatalf("%d stores preloaded for %d workers", len(seen), workers)
	}
	if pool.idle != nil {
		t.Fatal("pool kept stores after its last point")
	}
}
