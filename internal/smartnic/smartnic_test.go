package smartnic

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

func newHost() *memdev.System {
	space := memspace.New()
	space.Alloc("host", 1<<20, memspace.KindDRAM)
	return &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("host:dram", 6, 120e9, 90*sim.Nanosecond),
		LLC:   memdev.NewLLC("host:llc", 300e9, 20*sim.Nanosecond),
	}
}

func TestHostAccessFarSlowerThanLocal(t *testing.T) {
	s := New(DefaultConfig("bf2"), newHost())
	local := s.LocalAccess(0, 64)
	host := s.HostAccess(0, 64, 1)
	if host < 8*local {
		t.Fatalf("host access (%v) must be much slower than local (%v)", host, local)
	}
	// Calibration: a single 64B host access is on the order of 1-3us.
	if host < sim.Microsecond || host > 4*sim.Microsecond {
		t.Fatalf("host access=%v, want ~1.5-2.5us (Fig. 1 calibration)", host)
	}
	if s.LocalAccesses() != 1 || s.HostAccesses() != 1 {
		t.Fatal("counters")
	}
}

func TestHostAccessOverlapHidesLatency(t *testing.T) {
	s := New(DefaultConfig("bf2"), newHost())
	serial := s.HostAccess(0, 64, 1)
	s2 := New(DefaultConfig("bf2"), newHost())
	pipelined := s2.HostAccess(0, 64, 16)
	if pipelined >= serial {
		t.Fatalf("pipelined (%v) must beat serial (%v)", pipelined, serial)
	}
}

func TestExecUsesARMCores(t *testing.T) {
	s := New(DefaultConfig("bf2"), nil)
	// 2500 cycles at 2.5GHz = 1us; 8 cores run 8 in parallel.
	var done sim.Time
	for i := 0; i < 8; i++ {
		done = s.Exec(0, 2500)
	}
	if done != sim.Microsecond {
		t.Fatalf("8 parallel execs done=%v", done)
	}
	done = s.Exec(0, 2500)
	if done != 2*sim.Microsecond {
		t.Fatalf("9th exec=%v, want queued to 2us", done)
	}
}

func TestFig1Shape(t *testing.T) {
	// Request latency (100 x 64B accesses) must grow linearly with the
	// host-access percentage.
	lat := func(hostPct int) sim.Time {
		s := New(DefaultConfig("bf2"), newHost())
		at := sim.Time(0)
		for i := 0; i < 100; i++ {
			if i*100 < hostPct*100/1*1 && i < hostPct {
				at = s.HostAccess(at, 64, 1)
			} else {
				at = s.LocalAccess(at, 64)
			}
		}
		return at
	}
	l0, l50, l100 := lat(0), lat(50), lat(100)
	if !(l0 < l50 && l50 < l100) {
		t.Fatalf("latency not increasing: %v %v %v", l0, l50, l100)
	}
	mid := (l0 + l100) / 2
	if l50 < mid*8/10 || l50 > mid*12/10 {
		t.Fatalf("50%% point %v not linear between %v and %v", l50, l0, l100)
	}
}

func TestLRUBasics(t *testing.T) {
	c := NewLRUCache(1 << 10)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []byte("value-a"))
	v, ok := c.Get("a")
	if !ok || string(v) != "value-a" {
		t.Fatalf("get=%q ok=%v", v, ok)
	}
	c.Put("a", []byte("replaced"))
	v, _ = c.Get("a")
	if string(v) != "replaced" {
		t.Fatal("replace failed")
	}
	c.Invalidate("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("invalidated key still present")
	}
	if c.UsedBytes() != 0 {
		t.Fatalf("used=%d after invalidate", c.UsedBytes())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Each entry is 1+3+32 = 36 bytes; capacity for ~3.
	c := NewLRUCache(110)
	c.Put("a", []byte("aaa"))
	c.Put("b", []byte("bbb"))
	c.Put("c", []byte("ccc"))
	c.Get("a") // refresh a; b is now LRU
	c.Put("d", []byte("ddd"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
}

func TestLRUOversizeEntryIgnored(t *testing.T) {
	c := NewLRUCache(64)
	c.Put("huge", make([]byte, 128))
	if c.Len() != 0 {
		t.Fatal("oversize entry must not be cached")
	}
}

func TestLRUHitRate(t *testing.T) {
	c := NewLRUCache(1 << 20)
	c.Put("k", []byte("v"))
	c.Get("k")
	c.Get("k")
	c.Get("miss")
	if hr := c.HitRate(); hr < 0.6 || hr > 0.7 {
		t.Fatalf("hit rate=%v, want 2/3", hr)
	}
}

func TestLRUCapacityInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewLRUCache(4096)
		for _, op := range ops {
			key := fmt.Sprintf("key-%d", op%64)
			if op%3 == 0 {
				c.Get(key)
			} else {
				c.Put(key, make([]byte, int(op%200)))
			}
			if c.UsedBytes() > 4096 || c.UsedBytes() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLRUInterningOwnsKeyBytes(t *testing.T) {
	// PutBytes must copy the key: the caller's buffer is scratch and is
	// rewritten per request in the experiment hot paths.
	c := NewLRUCache(1 << 10)
	buf := []byte("key-a")
	c.PutBytes(buf, []byte("va"))
	copy(buf, "key-b")
	c.PutBytes(buf, []byte("vb"))
	if v, ok := c.Get("key-a"); !ok || string(v) != "va" {
		t.Fatalf("key-a=%q ok=%v (intern did not copy the key)", v, ok)
	}
	if v, ok := c.GetBytes([]byte("key-b")); !ok || string(v) != "vb" {
		t.Fatalf("key-b=%q ok=%v", v, ok)
	}
}

func TestLRUInternDedupsAcrossEviction(t *testing.T) {
	// Each entry is 5+3+32 = 40 bytes: capacity 80 holds two. Cycling
	// three keys evicts and re-inserts each repeatedly; the interning
	// table must stay at the distinct-key count instead of growing with
	// insert traffic.
	c := NewLRUCache(80)
	keys := [][]byte{[]byte("key-a"), []byte("key-b"), []byte("key-c")}
	for i := 0; i < 300; i++ {
		c.PutBytes(keys[i%3], []byte("vvv"))
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2 resident", c.Len())
	}
	if len(c.interned) != 3 {
		t.Fatalf("interned %d keys, want 3 (dedup across eviction)", len(c.interned))
	}
	if len(c.arena.blocks) != 1 {
		t.Fatalf("arena has %d blocks, want 1 (15 bytes of distinct keys)", len(c.arena.blocks))
	}
}

func TestLRUSteadyStateZeroAlloc(t *testing.T) {
	// The fig8/fig9 SmartNIC hot path: GETs hitting the cache and
	// refresh-Puts of resident keys. Neither may allocate once the
	// working set is resident (ROADMAP item 5: no string key
	// materialized per insert).
	if raceEnabled {
		t.Skip("allocation counts distorted under -race")
	}
	c := NewLRUCache(1 << 20)
	const n = 64
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		vals[i] = make([]byte, 40)
		c.PutBytes(keys[i], vals[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i%n]
		c.PutBytes(k, vals[i%n])
		if _, ok := c.GetBytes(k); !ok {
			t.Fatal("resident key missing")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state PutBytes+GetBytes allocates %.1f/op, want 0", allocs)
	}

	// At capacity: cycling twice as many keys as fit makes every insert
	// evict the LRU entry. Inserts reuse the evicted slot and its value
	// buffer, and the keys are interned from the first cycle on.
	full := NewLRUCache(n / 2 * entrySize(len(keys[0]), vals[0]))
	for _, k := range keys {
		full.PutBytes(k, vals[0])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for cycle := 0; cycle < 100; cycle++ {
		for i, k := range keys {
			full.PutBytes(k, vals[i])
		}
	}
	runtime.ReadMemStats(&after)
	if full.Len() != n/2 {
		t.Fatalf("len=%d, want %d resident at capacity", full.Len(), n/2)
	}
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("%d inserts at capacity, each evicting, made %d allocations, want 0", 100*n, got)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{}, nil) },
		func() { NewLRUCache(0) },
	} {
		func() {
			defer func() { recover() }()
			f()
			t.Fatal("expected panic")
		}()
	}
}
