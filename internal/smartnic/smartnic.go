// Package smartnic models the NVIDIA BlueField-2 SmartNIC used as the
// paper's SmartNIC-offloading baseline (Tab. II): eight ARM A72 cores,
// 16 GB of on-board DDR4, and host-memory access via one-sided RDMA
// over the PCIe link — the path whose cost Fig. 1 quantifies and whose
// cache-miss behaviour drives Figs. 8–9's SmartNIC results.
package smartnic

import (
	"container/list"
	"unsafe"

	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/sim"
)

// Config describes the SmartNIC SoC.
type Config struct {
	Name    string
	Cores   int     // ARM cores (8)
	ClockHz float64 // 2.5 GHz

	// On-board DRAM.
	LocalBW      float64
	LocalLatency sim.Duration

	// Host access path: PCIe bandwidth plus the fixed round-trip
	// overhead of "the physical PCIe link, memory management unit
	// (MMU), DMA engine, and I/O controller" (paper Sec. II-B).
	PCIeBW        float64
	HostRoundTrip sim.Duration
}

// DefaultConfig returns the BlueField-2 parameters from Tab. II,
// calibrated against Fig. 1's measured access latencies.
func DefaultConfig(name string) Config {
	return Config{
		Name:          name,
		Cores:         8,
		ClockHz:       2.5e9,
		LocalBW:       19e9,
		LocalLatency:  110 * sim.Nanosecond,
		PCIeBW:        16e9,
		HostRoundTrip: 1600 * sim.Nanosecond,
	}
}

// SmartNIC is the SoC model.
type SmartNIC struct {
	cfg   Config
	cores *sim.Resource
	local *memdev.DRAM
	pcie  *interconnect.PCIe
	host  *memdev.System

	localAccesses, hostAccesses int64
}

// New builds a SmartNIC whose host accesses land in the given host
// memory system (nil host is allowed for purely local workloads).
func New(cfg Config, host *memdev.System) *SmartNIC {
	if cfg.Cores <= 0 || cfg.ClockHz <= 0 {
		panic("smartnic: bad config")
	}
	return &SmartNIC{
		cfg:   cfg,
		cores: sim.NewResource(cfg.Name+":arm", cfg.Cores, 0, cfg.ClockHz, 0),
		local: memdev.NewDRAM(cfg.Name+":ddr", 1, cfg.LocalBW, cfg.LocalLatency),
		pcie:  interconnect.NewPCIe(cfg.Name+":pcie", cfg.PCIeBW, cfg.HostRoundTrip/2, 400*sim.Nanosecond),
		host:  host,
	}
}

// Config returns the SoC configuration.
func (s *SmartNIC) Config() Config { return s.cfg }

// Exec occupies an ARM core for `cycles` cycles.
func (s *SmartNIC) Exec(now sim.Time, cycles int) sim.Time {
	_, done := s.cores.Acquire(now, cycles)
	return done
}

// Cores exposes the ARM pool.
func (s *SmartNIC) Cores() *sim.Resource { return s.cores }

// LocalAccess reads or writes on-board DRAM with load/store
// instructions.
func (s *SmartNIC) LocalAccess(now sim.Time, bytes int) sim.Time {
	s.localAccesses++
	return s.local.Access(now, bytes)
}

// HostAccess reaches host memory with a one-sided RDMA read/write over
// PCIe (direct verbs, paper Sec. II-B). overlap > 1 models
// batching/pipelining that hides part of the round trip.
func (s *SmartNIC) HostAccess(now sim.Time, bytes, overlap int) sim.Time {
	if overlap < 1 {
		overlap = 1
	}
	s.hostAccesses++
	// Request descriptor toward the host, payload back (or forth).
	at := s.pcie.DMA(now, bytes)
	if s.host != nil {
		at = s.host.DRAM.AccessOverlapped(at, bytes, overlap)
	}
	// The fixed round-trip overhead, partially hidden by pipelining;
	// the PCIe propagation already covered half a crossing.
	visible := s.cfg.HostRoundTrip / 2 / sim.Duration(overlap)
	return at + visible
}

// LocalAccesses and HostAccesses report traffic counters.
func (s *SmartNIC) LocalAccesses() int64 { return s.localAccesses }
func (s *SmartNIC) HostAccesses() int64  { return s.hostAccesses }

// LRUCache is the on-board software cache of recently accessed hash
// entries and key-value pairs (paper Sec. VI-B allocates 512 MB of the
// SmartNIC's DRAM for it). Capacity is accounted in bytes.
type LRUCache struct {
	capacity int64
	used     int64
	order    *list.List // front = most recent; values are *cacheEntry
	byKey    map[string]*list.Element

	// Key interning: byte-slice keys are copied once per distinct key
	// into append-only arena blocks; `interned` dedups so re-inserting
	// a key the cache has ever seen (including after eviction) reuses
	// the same string header and bytes. Arena memory is bounded by the
	// distinct-key universe, not by insert traffic.
	interned map[string]string
	arena    keyArena

	hits, misses int64
}

type cacheEntry struct {
	key  string
	val  []byte
	size int64
}

// keyArena stores interned key bytes in append-only blocks. Blocks are
// never reallocated (append only ever fills spare capacity), so the
// unsafe.String headers handed out stay valid for the cache's lifetime.
type keyArena struct {
	blocks [][]byte
}

const arenaBlockBytes = 64 << 10

func (a *keyArena) intern(key []byte) string {
	n := len(key)
	if len(a.blocks) == 0 {
		a.grow(n)
	}
	b := &a.blocks[len(a.blocks)-1]
	if cap(*b)-len(*b) < n {
		a.grow(n)
		b = &a.blocks[len(a.blocks)-1]
	}
	off := len(*b)
	*b = append(*b, key...)
	return unsafe.String(&(*b)[off], n)
}

func (a *keyArena) grow(need int) {
	size := arenaBlockBytes
	if need > size {
		size = need
	}
	a.blocks = append(a.blocks, make([]byte, 0, size))
}

// NewLRUCache builds a byte-bounded LRU cache.
func NewLRUCache(capacityBytes int64) *LRUCache {
	if capacityBytes <= 0 {
		panic("smartnic: cache capacity must be positive")
	}
	return &LRUCache{
		capacity: capacityBytes,
		order:    list.New(),
		byKey:    make(map[string]*list.Element),
		interned: make(map[string]string),
	}
}

func entrySize(keyLen int, val []byte) int64 {
	// Key + value + bookkeeping overhead (hash entry).
	return int64(keyLen + len(val) + 32)
}

// Get returns the cached value and refreshes recency.
func (c *LRUCache) Get(key string) ([]byte, bool) {
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	c.misses++
	return nil, false
}

// GetBytes is Get keyed by a byte slice: the map lookup's string
// conversion is the compiler-recognized non-allocating pattern, so
// steady-state lookups stay allocation-free while inserts (which must
// materialize an owned string key) still go through Put.
func (c *LRUCache) GetBytes(key []byte) ([]byte, bool) {
	if el, ok := c.byKey[string(key)]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	c.misses++
	return nil, false
}

// Put inserts or refreshes a value, evicting LRU entries to fit. It is
// the string-keyed convenience form of PutBytes (same interning, no
// per-insert key copy beyond the one-time arena intern).
func (c *LRUCache) Put(key string, val []byte) {
	c.PutBytes(unsafe.Slice(unsafe.StringData(key), len(key)), val)
}

// PutBytes inserts or refreshes a value keyed by raw bytes, evicting
// LRU entries to fit. The key path never allocates in steady state:
// resident-key refreshes use the compiler's non-allocating
// []byte→string map lookup, and re-inserting any previously seen key
// (including one evicted since) reuses its interned string.
func (c *LRUCache) PutBytes(key, val []byte) {
	size := entrySize(len(key), val)
	if size > c.capacity {
		return // larger than the whole cache: uncacheable
	}
	if el, ok := c.byKey[string(key)]; ok {
		e := el.Value.(*cacheEntry)
		c.used += size - e.size
		e.val, e.size = val, size
		c.order.MoveToFront(el)
	} else {
		k := c.internKey(key)
		el := c.order.PushFront(&cacheEntry{key: k, val: val, size: size})
		c.byKey[k] = el
		c.used += size
	}
	for c.used > c.capacity {
		back := c.order.Back()
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.byKey, e.key)
		c.used -= e.size
	}
}

// internKey returns the canonical owned string for a byte key, copying
// it into the arena the first time the key is ever inserted.
func (c *LRUCache) internKey(key []byte) string {
	if k, ok := c.interned[string(key)]; ok {
		return k
	}
	k := c.arena.intern(key)
	c.interned[k] = k
	return k
}

// Invalidate drops a key (e.g. on a PUT that must reach host memory).
func (c *LRUCache) Invalidate(key string) {
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.byKey, key)
		c.used -= e.size
	}
}

// UsedBytes reports current occupancy.
func (c *LRUCache) UsedBytes() int64 { return c.used }

// Len reports the number of cached entries.
func (c *LRUCache) Len() int { return c.order.Len() }

// HitRate reports the lifetime hit ratio.
func (c *LRUCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
