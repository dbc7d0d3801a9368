package scaleout

import (
	"errors"
	"fmt"

	"rambda/internal/chainrep"
	"rambda/internal/fault"
	"rambda/internal/kvs"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// ErrRetriesExhausted reports that a request burned every attempt —
// stale-map refreshes and failover timeouts both count — without being
// served. It is the frontend's degradation contract: a request to a
// fully-crashed shard fails loudly and countably instead of wedging.
var ErrRetriesExhausted = errors.New("scaleout: request retries exhausted")

// ErrNotFound reports a GET of a key that was never written.
var ErrNotFound = errors.New("scaleout: key not found")

// ErrShardFull reports a PUT of a new key to a shard whose
// SlotsPerShard slots are all taken.
var ErrShardFull = errors.New("scaleout: shard store full")

// ErrValueTooLarge reports a PUT of a value longer than SlotBytes.
var ErrValueTooLarge = errors.New("scaleout: value exceeds slot size")

// Config sizes a sharded cluster.
type Config struct {
	// Shards is the number of shard chains; Replicas the chain length of
	// each; VNodes the virtual nodes per shard on the ring.
	Shards   int
	Replicas int
	VNodes   int

	// SlotsPerShard bounds the distinct keys a shard can hold (each key
	// owns one fixed SlotBytes store slot); LogEntries sizes each
	// replica's redo-log ring.
	SlotsPerShard int
	SlotBytes     int
	LogEntries    int

	// Seed places the ring's virtual nodes.
	Seed uint64

	// Testbed timing, matching the chainrep experiments.
	ClientOneWay  sim.Duration
	HopDelay      sim.Duration
	WireBPS       float64
	ProcDelay     sim.Duration
	PerTupleDelay sim.Duration

	// Hot-key detection and migration policy. RebalanceEvery is the
	// detection window in requests (0 disables migration);
	// ImbalanceThreshold is the max/mean window load ratio that triggers
	// a migration; HotKeysPerMove caps keys moved per migration;
	// MaxMigrations caps migrations per run; CopyChunk is the number of
	// keys snapshot-copied per request completion while a migration is
	// in flight.
	TopK               int
	RebalanceEvery     int
	ImbalanceThreshold float64
	HotKeysPerMove     int
	MaxMigrations      int
	CopyChunk          int

	// Fault handling and elasticity. MaxAttempts bounds Frontend.do's
	// retry loop — stale-map refreshes and failover timeouts both
	// consume attempts (<= 0 takes 6). RetryBackoff is the base of the
	// exponential backoff charged after an attempt that found no live
	// replica. AckTimeout is the chain failure detector's missed-ack
	// timer once EnableFaults arms it (<= 0 takes the chainrep
	// default). RangeChunkKeys caps the keys moved per elastic range
	// migration (<= 0 takes 256).
	MaxAttempts    int
	RetryBackoff   sim.Duration
	AckTimeout     sim.Duration
	RangeChunkKeys int
}

// DefaultConfig returns a 4-shard cluster at the chainrep testbed
// parameters.
func DefaultConfig() Config {
	return Config{
		Shards:        4,
		Replicas:      2,
		VNodes:        64,
		SlotsPerShard: 1 << 15,
		SlotBytes:     64,
		LogEntries:    4096,
		Seed:          42,

		ClientOneWay:  2 * sim.Microsecond,
		HopDelay:      2500 * sim.Nanosecond,
		WireBPS:       3.125e9,
		ProcDelay:     500 * sim.Nanosecond,
		PerTupleDelay: 100 * sim.Nanosecond,

		TopK:               16,
		RebalanceEvery:     2000,
		ImbalanceThreshold: 1.2,
		HotKeysPerMove:     4,
		MaxMigrations:      8,
		CopyChunk:          8,

		MaxAttempts:    6,
		RetryBackoff:   10 * sim.Microsecond,
		AckTimeout:     25 * sim.Microsecond,
		RangeChunkKeys: 256,
	}
}

// defaultMaxAttempts backs MaxAttempts when a caller-built Config left
// it zero.
const defaultMaxAttempts = 6

// retryShiftCap bounds the exponential retry backoff shift.
const retryShiftCap = 6

// slotRef locates one key's value inside its shard's store.
type slotRef struct {
	off uint32
	n   uint16
}

// Shard is one partition: a replicated chain plus the key-hash index
// over its store slots, its hot-key sketch, and its latency histogram.
type Shard struct {
	id        int
	chain     *chainrep.Chain
	index     map[uint64]slotRef
	nextSlot  uint32
	slots     uint32
	slotBytes uint32

	hot    *obs.TopK
	hist   *sim.Histogram
	served int64 // lifetime requests served here
	window int64 // requests in the current detection window

	// retired marks a shard drained and removed by an elastic resize:
	// it owns no keys, serves no requests, and is skipped by every
	// planner. Its chain is kept (cheap, and its history stays
	// inspectable) but never touched again.
	retired bool

	// Request-path scratch: each cluster is driven from one goroutine
	// (one runner sweep point), so one read op, one write tuple, and one
	// TxScratch per shard make the steady state allocation-free.
	sc chainrep.TxScratch
	rd [1]chainrep.ReadOp
	wr [1]chainrep.Tuple
}

// newShard builds shard i's chain: Replicas fresh machines, each with
// its own memory system, flat NVM store, and redo log.
func newShard(i int, cfg Config) *Shard {
	ch := &chainrep.Chain{
		ClientOneWay: cfg.ClientOneWay,
		HopDelay:     cfg.HopDelay,
		WireBPS:      cfg.WireBPS,
	}
	dataBytes := uint64(cfg.SlotsPerShard) * uint64(cfg.SlotBytes)
	entrySize := chainrep.EntrySize(1, cfg.SlotBytes)
	for r := 0; r < cfg.Replicas; r++ {
		name := fmt.Sprintf("s%dr%d", i, r)
		space := memspace.New()
		mem := &memdev.System{
			Space: space,
			DRAM:  memdev.NewDRAM(name+":dram", 6, 120e9, 90*sim.Nanosecond),
			NVM:   memdev.NewNVM(name+":nvm", 6, 39e9, 300*sim.Nanosecond, 3),
			LLC:   memdev.NewLLC(name+":llc", 300e9, 20*sim.Nanosecond),
		}
		nodeCfg := chainrep.NodeConfig{
			Name: name, ProcDelay: cfg.ProcDelay, PerTupleDelay: cfg.PerTupleDelay,
		}
		ch.Nodes = append(ch.Nodes, chainrep.NewNode(space, mem, nodeCfg,
			dataBytes, cfg.LogEntries, entrySize))
	}
	return &Shard{
		id:        i,
		chain:     ch,
		index:     make(map[uint64]slotRef),
		slots:     uint32(cfg.SlotsPerShard),
		slotBytes: uint32(cfg.SlotBytes),
		hot:       obs.NewTopK(cfg.TopK),
		hist:      sim.NewHistogram(0),
	}
}

// ensureSlot returns key hash h's slot for an n-byte value, allocating
// the next free one on first touch.
func (s *Shard) ensureSlot(h uint64, n int) (slotRef, error) {
	if n > int(s.slotBytes) {
		return slotRef{}, ErrValueTooLarge
	}
	if ref, ok := s.index[h]; ok {
		if int(ref.n) != n {
			ref.n = uint16(n)
			s.index[h] = ref
		}
		return ref, nil
	}
	if s.nextSlot >= s.slots {
		return slotRef{}, ErrShardFull
	}
	ref := slotRef{off: s.nextSlot * s.slotBytes, n: uint16(n)}
	s.nextSlot++
	s.index[h] = ref
	return ref, nil
}

// migEntry is one write to a migrating key, logged at the source for
// catch-up replay at the destination.
type migEntry struct {
	key uint64
	val []byte
}

// migration is one in-flight hot-key move. Phase A (start): the keys
// are marked migrating and writes to them start being logged. Phase B
// (stepMigration): the source's current values are snapshot-copied to
// the destination, CopyChunk keys per request completion. Phase C (same
// call that finishes the copy): the logged writes are replayed at the
// destination in arrival order and the shard map flips atomically.
type migration struct {
	src, dst  int
	keys      []uint64 // hottest first, the sketch's deterministic order
	cursor    int      // next key to snapshot-copy
	migrating map[uint64]bool
	log       []migEntry

	// elastic marks a range-migration chunk of an in-flight resize;
	// resizeStart is the resize cursor to rewind to if the chunk
	// aborts (so the whole chunk re-copies on retry).
	elastic     bool
	resizeStart int
}

// Cluster is the sharded KVS: Shards chain-replicated partitions behind
// a consistent-hash ring, an authoritative ShardMap that migrations
// flip, and the hot-key detection state machine. One Cluster is driven
// from one goroutine; all cross-shard decisions are deterministic.
type Cluster struct {
	cfg    Config
	shards []*Shard
	cur    *ShardMap // authoritative routing state
	mig    *migration

	// Availability layer: inj == nil — the default, until EnableFaults
	// — is the fault-free fast path (no liveness scans, no retry
	// bookkeeping, byte-identical behaviour); resize is the in-flight
	// elastic reshape, nil when the shard set is stable.
	inj    *fault.Injector
	resize *resize

	sinceCheck     int
	checks         int64
	staleRetries   int64
	migrations     int64
	movedKeys      int64
	firstImbalance float64
	lastImbalance  float64

	deepStale       int64 // refreshes that jumped >= 2 map versions
	timeoutRetries  int64 // attempts that found no live replica
	failed          int64 // requests that exhausted every attempt
	aborted         int64 // migrations abandoned to a crashed chain
	rangeMigrations int64 // elastic range chunks flipped
	rangeKeys       int64 // keys moved by elastic chunks
	resizes         int64 // completed AddShard/RemoveShard reshapes

	reg *obs.Registry

	// Migration-path scratch, separate from the shards' request scratch
	// so a snapshot copy never clobbers a value a frontend just
	// returned.
	migSc  chainrep.TxScratch
	migRd  [1]chainrep.ReadOp
	migWr  [1]chainrep.Tuple
	topBuf []obs.TopKEntry
}

// New builds the cluster: Shards empty shard chains and a version-1
// shard map over the ring.
func New(cfg Config) *Cluster {
	if cfg.Shards < 1 || cfg.Replicas < 1 {
		panic("scaleout: need Shards >= 1 and Replicas >= 1")
	}
	c := &Cluster{cfg: cfg, firstImbalance: 1, lastImbalance: 1}
	c.shards = make([]*Shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = newShard(i, cfg)
	}
	c.cur = NewShardMap(NewRing(cfg.Shards, cfg.VNodes, cfg.Seed))
	return c
}

// Config returns the cluster's sizing.
func (c *Cluster) Config() Config { return c.cfg }

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Chain exposes shard i's replication chain (tests check replica
// state-equality through it).
func (c *Cluster) Chain(i int) *chainrep.Chain { return c.shards[i].chain }

// Map returns the authoritative shard map.
func (c *Cluster) Map() *ShardMap { return c.cur }

// MigrationActive reports whether a hot-key move is in flight.
func (c *Cluster) MigrationActive() bool { return c.mig != nil }

// ResizeActive reports whether an elastic reshape is in flight.
func (c *Cluster) ResizeActive() bool { return c.resize != nil }

// Retired reports whether shard i has been drained and removed.
func (c *Cluster) Retired(i int) bool { return c.shards[i].retired }

// LiveShards counts the non-retired shards.
func (c *Cluster) LiveShards() int {
	n := 0
	for _, sh := range c.shards {
		if !sh.retired {
			n++
		}
	}
	return n
}

// MergedLatency folds the per-shard latency histograms into one
// cluster-wide distribution (sim.Histogram.Merge keeps count/sum/min/
// max exact). Call it once after the run, on one goroutine.
func (c *Cluster) MergedLatency() *sim.Histogram {
	h := sim.NewHistogram(0)
	for _, sh := range c.shards {
		h.Merge(sh.hist)
	}
	return h
}

// Stats summarizes the run.
type Stats struct {
	Requests       int64
	StaleRetries   int64
	Migrations     int64
	MovedKeys      int64
	MapVersion     uint64
	Overrides      int
	FirstImbalance float64 // max/mean shard load, first detection window
	LastImbalance  float64 // max/mean shard load, latest window

	// Fault-path and elasticity counters, all zero on the fault-free
	// fast path. DeepStale counts map refreshes that crossed two or
	// more versions (the elastic-resharding staleness the single-flip
	// model never produced); TimeoutRetries counts attempts that found
	// no live replica; Failed counts requests that exhausted every
	// attempt; Aborted counts migrations abandoned to a crashed chain or
	// a full destination;
	// RangeMigrations/RangeKeys count elastic handoff chunks and the
	// keys they moved; Resizes counts completed reshapes; LiveShards is
	// the current non-retired shard count.
	DeepStale       int64
	TimeoutRetries  int64
	Failed          int64
	Aborted         int64
	RangeMigrations int64
	RangeKeys       int64
	Resizes         int64
	LiveShards      int

	// Chain availability counters, summed over every shard chain.
	Failovers  int64
	MissedAcks int64
	Rejoins    int64
	ReplayedTx int64
	CaughtUpTx int64
}

// Stats reads the cluster counters.
func (c *Cluster) Stats() Stats {
	var req int64
	live := 0
	st := Stats{
		StaleRetries:    c.staleRetries,
		Migrations:      c.migrations,
		MovedKeys:       c.movedKeys,
		MapVersion:      c.cur.Version,
		Overrides:       c.cur.Overrides(),
		FirstImbalance:  c.firstImbalance,
		LastImbalance:   c.lastImbalance,
		DeepStale:       c.deepStale,
		TimeoutRetries:  c.timeoutRetries,
		Failed:          c.failed,
		Aborted:         c.aborted,
		RangeMigrations: c.rangeMigrations,
		RangeKeys:       c.rangeKeys,
		Resizes:         c.resizes,
	}
	for _, sh := range c.shards {
		req += sh.served
		if !sh.retired {
			live++
		}
		fs := sh.chain.FailoverStats()
		st.Failovers += fs.Failovers
		st.MissedAcks += fs.MissedAcks
		st.Rejoins += fs.Rejoins
		st.ReplayedTx += fs.ReplayedTx
		st.CaughtUpTx += fs.CaughtUpTx
	}
	st.Requests = req
	st.LiveShards = live
	return st
}

// RegisterMetrics wires the cluster into an obs.Registry: gauges for
// the migration counters, the load-imbalance ratio, the map version,
// and per-shard served counts. The registry's virtual-time ticker is
// advanced at every request completion, so the exported samples show
// the imbalance dropping when a migration lands.
func (c *Cluster) RegisterMetrics(reg *obs.Registry, prefix string) {
	c.reg = reg
	reg.Gauge(prefix+".stale_retries", func() float64 { return float64(c.staleRetries) })
	reg.Gauge(prefix+".migrations", func() float64 { return float64(c.migrations) })
	reg.Gauge(prefix+".moved_keys", func() float64 { return float64(c.movedKeys) })
	reg.Gauge(prefix+".imbalance", func() float64 { return c.lastImbalance })
	reg.Gauge(prefix+".map_version", func() float64 { return float64(c.cur.Version) })
	reg.Gauge(prefix+".overrides", func() float64 { return float64(c.cur.Overrides()) })
	for i := range c.shards {
		sh := c.shards[i]
		reg.Gauge(fmt.Sprintf("%s.shard%d.served", prefix, i),
			func() float64 { return float64(sh.served) })
	}
}

// Preload installs one pair at its owning shard, CC-free (the bulk-load
// path before the workload opens). It returns the install's completion
// time; chaining it through a load loop serializes the preload, and the
// workload should open at the returned time.
func (c *Cluster) Preload(now sim.Time, key, val []byte) sim.Time {
	h := kvs.Hash64(key)
	sh := c.shards[c.cur.Shard(h)]
	ref, err := sh.ensureSlot(h, len(val))
	if err != nil {
		panic(fmt.Sprintf("scaleout: preload: %v", err))
	}
	c.migWr[0] = chainrep.Tuple{Offset: ref.off, Data: val}
	done, err := sh.chain.ApplyCommitted(now, c.migWr[:1])
	if err != nil {
		panic(fmt.Sprintf("scaleout: preload: %v", err))
	}
	return done
}

// wireDur returns the serialization delay of n bytes on the cluster's
// links.
func (c *Cluster) wireDur(n int) sim.Duration {
	if c.cfg.WireBPS <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / c.cfg.WireBPS * float64(sim.Second))
}

// mapBytes estimates the serialized shard map (ring geometry is client
// config; the transfer is versions plus overrides).
func (c *Cluster) mapBytes() int { return 64 + 12*c.cur.Overrides() }

// statusCost charges a request that a shard answers with a small
// error status: one client round trip.
func (c *Cluster) statusCost() sim.Duration {
	return 2*c.cfg.ClientOneWay + c.wireDur(32)
}

// rejectCost charges a stale-map miss: the wasted round trip to the
// wrong shard (which answers with a WRONG_SHARD status) plus the
// refresh fetch of the current map from the configuration service.
func (c *Cluster) rejectCost() sim.Duration {
	refresh := 2*c.cfg.ClientOneWay + c.wireDur(c.mapBytes())
	return c.statusCost() + refresh
}

// Frontend is one client-side router holding a possibly stale shard
// map. Frontends refresh lazily: only when a shard rejects a request
// routed by an outdated map version.
type Frontend struct {
	c *Cluster
	m *ShardMap
}

// NewFrontend returns a frontend starting from the current map.
func (c *Cluster) NewFrontend() *Frontend {
	return &Frontend{c: c, m: c.cur}
}

// MapVersion reports the frontend's current map version.
func (f *Frontend) MapVersion() uint64 { return f.m.Version }

// Get reads key. The returned value aliases the owning shard's scratch
// and is valid until the next request that shard serves. Get panics on
// any error TryGet would return: a key never written, or a
// retry-exhausted request (impossible without fault injection).
func (f *Frontend) Get(now sim.Time, key []byte) ([]byte, sim.Time) {
	v, done, err := f.do(now, key, nil)
	if err != nil {
		panic(fmt.Sprintf("scaleout: get: %v", err))
	}
	return v, done
}

// Put writes key=val. Like Get it panics on any error TryPut would
// return.
func (f *Frontend) Put(now sim.Time, key, val []byte) sim.Time {
	_, done, err := f.do(now, key, val)
	if err != nil {
		panic(fmt.Sprintf("scaleout: put: %v", err))
	}
	return done
}

// TryGet is the fault-aware read: on ErrRetriesExhausted the returned
// time is when the frontend gave up (attempt costs and backoff
// included) and the read executed zero times. A key that was never
// written returns ErrNotFound after one round trip to its shard.
func (f *Frontend) TryGet(now sim.Time, key []byte) ([]byte, sim.Time, error) {
	return f.do(now, key, nil)
}

// TryPut is the fault-aware write: on ErrRetriesExhausted the write
// may still surface later — a crashed replica can hold its torn log
// entry, and rejoin convergence applies it chain-wide — so callers
// must treat a failed put as "at most once, never torn" (DESIGN.md
// §11), exactly the contract of a timed-out RPC. A value longer than
// SlotBytes returns ErrValueTooLarge, and a new key on a shard with no
// free slot ErrShardFull, each after one round trip and without
// writing anything.
func (f *Frontend) TryPut(now sim.Time, key, val []byte) (sim.Time, error) {
	_, done, err := f.do(now, key, val)
	return done, err
}

// do routes one request with a bounded retry budget. A stale map sends
// it to a shard that no longer owns the key; the shard's ownership
// check rejects it, the frontend pays the reject + map-refresh cost,
// and retries with the fresh map — the request is never executed
// twice. With a current map and a live chain the loop serves on the
// first pass. An attempt that reaches a chain with no live replica
// costs the failed round trip plus an exponential backoff, triggers a
// rejoin scan, and retries; both kinds of retry consume attempts, and
// exhaustion returns a counted ErrRetriesExhausted instead of wedging.
func (f *Frontend) do(now sim.Time, key, val []byte) ([]byte, sim.Time, error) {
	h := kvs.Hash64(key)
	c := f.c
	at := now
	maxAttempts := c.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = defaultMaxAttempts
	}
	for attempt := 1; ; attempt++ {
		sid := f.m.Shard(h)
		if sid != c.cur.Shard(h) {
			at += c.rejectCost()
			c.staleRetries++
			// Under elastic resharding every flipped chunk publishes a
			// version, so a quiet frontend can fall arbitrarily far
			// behind; the refresh hands it the authoritative map in one
			// fetch, but the depth is worth counting.
			if c.cur.Version > f.m.Version+1 {
				c.deepStale++
			}
			f.m = c.cur
			if attempt >= maxAttempts {
				c.failed++
				c.afterRequest(now)
				return nil, at, ErrRetriesExhausted
			}
			continue
		}
		sh := c.shards[sid]
		var ret []byte
		var done sim.Time
		var err error
		if val == nil {
			ref, ok := sh.index[h]
			if !ok {
				c.afterRequest(now)
				return nil, at + c.statusCost(), ErrNotFound
			}
			sh.rd[0] = chainrep.ReadOp{Offset: ref.off, Len: int(ref.n)}
			var vals [][]byte
			vals, done, err = sh.chain.RambdaTxInto(at, chainrep.Tx{Reads: sh.rd[:1]}, &sh.sc)
			if err == nil {
				ret = vals[0]
			}
		} else {
			ref, serr := sh.ensureSlot(h, len(val))
			if serr != nil {
				c.afterRequest(now)
				return nil, at + c.statusCost(), serr
			}
			sh.wr[0] = chainrep.Tuple{Offset: ref.off, Data: val}
			_, done, err = sh.chain.RambdaTxInto(at, chainrep.Tx{Writes: sh.wr[:1]}, &sh.sc)
			// A write to a key mid-migration commits at the source (the
			// owner until the flip) and is additionally logged for
			// catch-up replay at the destination.
			if err == nil && c.mig != nil && sid == c.mig.src && c.mig.migrating[h] {
				c.mig.log = append(c.mig.log, migEntry{key: h, val: append([]byte(nil), val...)})
			}
		}
		if err != nil {
			// Every replica of the shard is down. Charge the failed
			// round trip plus the backoff, give window-expired replicas
			// a chance to rejoin, and retry.
			c.timeoutRetries++
			shift := attempt - 1
			if shift > retryShiftCap {
				shift = retryShiftCap
			}
			at += sim.Time(2*c.cfg.ClientOneWay) + sim.Time(c.cfg.RetryBackoff<<uint(shift))
			c.maybeRejoin(at)
			if attempt >= maxAttempts {
				c.failed++
				c.afterRequest(now)
				return nil, at, ErrRetriesExhausted
			}
			continue
		}
		sh.hot.Observe(h)
		sh.served++
		sh.window++
		sh.hist.Record(done - now)
		c.afterRequest(now)
		return ret, done, nil
	}
}

// afterRequest is the cluster's per-completion tick: rejoin replicas
// whose fault windows ended, advance any in-flight migration by one
// chunk, pump the elastic resize, run the hot-key detection check at
// window boundaries, and advance the metrics ticker. Driving the state
// machine from the request loop (rather than a background goroutine)
// interleaves migration traffic with foreground requests while keeping
// the whole cluster single-threaded and deterministic. Every branch is
// gated so the fault-free, fixed-shard path is byte-identical to the
// pre-fault model.
func (c *Cluster) afterRequest(now sim.Time) {
	if c.inj != nil {
		c.maybeRejoin(now)
	}
	if c.mig != nil {
		c.stepMigration(now)
	}
	if c.resize != nil && c.mig == nil && now >= c.resize.retryAt {
		c.pumpResize(now)
	}
	// Hot-key detection pauses while a resize is redrawing the ring:
	// the window loads it would act on are already being reshaped.
	if c.cfg.RebalanceEvery > 0 && c.resize == nil {
		c.sinceCheck++
		if c.sinceCheck >= c.cfg.RebalanceEvery {
			c.rebalanceCheck(now)
			c.sinceCheck = 0
		}
	}
	if c.reg != nil {
		c.reg.Tick(now)
	}
}

// stepMigration advances the in-flight move: snapshot-copies up to
// CopyChunk keys from the source head into the destination chain, and —
// once the copy completes — replays the catch-up log and flips the map.
// A logged write may both land in a later snapshot read and be replayed
// (same offset, same bytes): the replay is idempotent, so the
// destination always ends at the source's latest value.
//
// Fault semantics: a source-side partial failover is invisible here —
// the snapshot read fails over to the next live replica, and the
// catch-up log carries any writes that raced it, so the move resumes
// rather than restarts. Only a chain with no live replica at all
// (source unreadable, or destination unable to accept installs), or a
// destination with no free slot for a key, aborts the move; nothing
// flipped, so the source keeps serving and the abort
// is retried later (next detection window for hot-key moves, the
// resize pump for elastic chunks). It returns the time the last
// install completed (now when nothing advanced).
func (c *Cluster) stepMigration(now sim.Time) sim.Time {
	m := c.mig
	src, dst := c.shards[m.src], c.shards[m.dst]
	at := now
	chunk := c.cfg.CopyChunk
	if chunk < 1 {
		chunk = 1
	}
	for i := 0; i < chunk && m.cursor < len(m.keys); i++ {
		h := m.keys[m.cursor]
		ref := src.index[h]
		c.migRd[0] = chainrep.ReadOp{Offset: ref.off, Len: int(ref.n)}
		vals, _, err := src.chain.RambdaTxInto(at, chainrep.Tx{Reads: c.migRd[:1]}, &c.migSc)
		if err != nil {
			return c.abortMigration(now)
		}
		dref, err := dst.ensureSlot(h, int(ref.n))
		if err != nil {
			return c.abortMigration(now) // destination full
		}
		c.migWr[0] = chainrep.Tuple{Offset: dref.off, Data: vals[0]}
		at, err = dst.chain.ApplyCommitted(at, c.migWr[:1])
		if err != nil {
			return c.abortMigration(now)
		}
		m.cursor++
	}
	if m.cursor < len(m.keys) {
		return at
	}
	// Catch-up: writes that raced the copy, in arrival order.
	for _, e := range m.log {
		dref := dst.index[e.key]
		c.migWr[0] = chainrep.Tuple{Offset: dref.off, Data: e.val}
		var err error
		at, err = dst.chain.ApplyCommitted(at, c.migWr[:1])
		if err != nil {
			return c.abortMigration(now)
		}
	}
	// Atomic flip: publish the next map version; the source drops its
	// index entries so any request still routed there by a stale map
	// fails the ownership check rather than reading dead data.
	c.cur = c.cur.withOverrides(m.keys, m.dst)
	for _, h := range m.keys {
		delete(src.index, h)
	}
	if m.elastic {
		c.rangeMigrations++
		c.rangeKeys += int64(len(m.keys))
	} else {
		c.migrations++
		c.movedKeys += int64(len(m.keys))
	}
	c.mig = nil
	return at
}

// abortMigration abandons the in-flight move after its source or
// destination lost every replica, or its destination ran out of slots.
// Nothing has flipped: the source (if
// alive) still owns and serves every key, the destination's partial
// copies are invisible and will be overwritten by the retry, and the
// catch-up log is discarded with the move (its writes committed at the
// source, which remains the owner). Elastic chunks rewind the resize
// cursor and back off; hot-key moves wait for the next detection
// window.
func (c *Cluster) abortMigration(now sim.Time) sim.Time {
	m := c.mig
	c.aborted++
	c.mig = nil
	// Drop the destination index entries the partial copy installed:
	// nothing flipped, so the destination owns none of these keys, and a
	// stale entry would make a later elastic drain treat the key as
	// resident there and hand off dead bytes. The slots themselves leak
	// (a retry allocates fresh ones); that waste is bounded by the abort
	// count.
	dst := c.shards[m.dst]
	for _, h := range m.keys {
		delete(dst.index, h)
	}
	if m.elastic && c.resize != nil {
		c.resize.cursor = m.resizeStart
		backoff := c.cfg.RetryBackoff
		if backoff <= 0 {
			backoff = 10 * sim.Microsecond
		}
		c.resize.retryAt = now + sim.Time(backoff)
	}
	return now
}

// rebalanceCheck closes a detection window: it computes the window's
// load imbalance (max/mean requests per shard), starts a migration when
// the threshold is crossed, and resets the window counters and hot-key
// sketches. All selections tie-break on the lowest shard id.
func (c *Cluster) rebalanceCheck(now sim.Time) {
	_ = now
	var total, maxv int64
	maxi, live := -1, 0
	for i, sh := range c.shards {
		if sh.retired {
			continue
		}
		live++
		total += sh.window
		if maxi < 0 || sh.window > maxv {
			maxv = sh.window
			maxi = i
		}
	}
	imb := 1.0
	if total > 0 {
		imb = float64(maxv) * float64(live) / float64(total)
	}
	if c.checks == 0 {
		c.firstImbalance = imb
	}
	c.checks++
	c.lastImbalance = imb

	if c.mig == nil && imb >= c.cfg.ImbalanceThreshold &&
		c.migrations < int64(c.cfg.MaxMigrations) && live > 1 {
		c.startMigration(maxi)
	}

	for _, sh := range c.shards {
		sh.window = 0
		sh.hot.Reset()
	}
}

// startMigration plans a move from the window's most-loaded shard to
// its least-loaded one: the source's hottest still-owned keys, capped
// at HotKeysPerMove. Each key is taken only if shipping its window
// traffic leaves the destination strictly below the source's pre-move
// load — a key hot enough to violate that would merely relocate the
// hotspot and oscillate back next window.
func (c *Cluster) startMigration(src int) {
	dst := -1
	for i, sh := range c.shards {
		if sh.retired {
			continue
		}
		if dst < 0 || sh.window < c.shards[dst].window {
			dst = i
		}
	}
	if dst < 0 || dst == src {
		return
	}
	sh := c.shards[src]
	c.topBuf = sh.hot.Top(c.topBuf[:0])
	max := c.cfg.HotKeysPerMove
	if max < 1 {
		max = 1
	}
	keys := make([]uint64, 0, max)
	srcLoad, dstLoad := sh.window, c.shards[dst].window
	for _, e := range c.topBuf {
		if len(keys) == max {
			break
		}
		h := e.Key
		if c.cur.Shard(h) != src {
			continue // sketch residue from before an earlier flip
		}
		if _, ok := sh.index[h]; !ok {
			continue
		}
		if dstLoad+e.Count >= srcLoad {
			continue
		}
		keys = append(keys, h)
		srcLoad -= e.Count
		dstLoad += e.Count
	}
	if len(keys) == 0 {
		return
	}
	m := &migration{src: src, dst: dst, keys: keys,
		migrating: make(map[uint64]bool, len(keys))}
	for _, h := range keys {
		m.migrating[h] = true
	}
	c.mig = m
}
