package sim

import (
	"container/heap"
	"sort"
	"testing"
)

// linearResource is the pre-index placement algorithm, kept verbatim as
// the reference implementation: a flat age-ordered gap slice with an
// O(gaps) scan, O(n) slice-delete, O(n) copy on oldest-drop, and a
// container/heap server heap. gapTable must reproduce its (start, done)
// stream bit-for-bit on any input — equivalence is the invariant that
// keeps every figure byte-identical across the optimization.
type linearResource struct {
	overhead    Duration
	psPerByte   float64
	propagation Duration
	free        linearServerHeap
	gaps        []gap
}

type linearServerHeap []Time

func (h linearServerHeap) Len() int           { return len(h) }
func (h linearServerHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h linearServerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *linearServerHeap) Push(x any)        { *h = append(*h, x.(Time)) }
func (h *linearServerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newLinearResource(capacity int, overhead Duration, bytesPerSec float64, propagation Duration) *linearResource {
	r := &linearResource{overhead: overhead, propagation: propagation}
	if bytesPerSec > 0 {
		r.psPerByte = float64(Second) / bytesPerSec
	}
	r.free = make(linearServerHeap, capacity)
	heap.Init(&r.free)
	return r
}

func (r *linearResource) serviceTime(bytes int) Duration {
	return r.overhead + Duration(float64(bytes)*r.psPerByte)
}

func (r *linearResource) acquire(now Time, bytes int) (start, done Time) {
	occupy := r.serviceTime(bytes)
	if occupy == 0 {
		return now, now + r.propagation
	}
	start = r.place(now, occupy)
	return start, start + occupy + r.propagation
}

func (r *linearResource) occupy(now Time, dur Duration) (start, end Time) {
	if dur <= 0 {
		return now, now
	}
	start = r.place(now, dur)
	return start, start + dur
}

func (r *linearResource) place(now Time, occupy Duration) Time {
	best := -1
	var bestStart Time
	for i, g := range r.gaps {
		s := Max(now, g.start)
		if s+occupy <= g.end && (best < 0 || s < bestStart) {
			best, bestStart = i, s
		}
	}
	if best >= 0 {
		g := r.gaps[best]
		r.gaps = append(r.gaps[:best], r.gaps[best+1:]...)
		if bestStart > g.start {
			r.recordGap(g.start, bestStart)
		}
		if bestStart+occupy < g.end {
			r.recordGap(bestStart+occupy, g.end)
		}
		return bestStart
	}
	frontier := r.free[0]
	start := Max(now, frontier)
	if start > frontier {
		r.recordGap(frontier, start)
	}
	r.free[0] = start + occupy
	heap.Fix(&r.free, 0)
	return start
}

func (r *linearResource) recordGap(start, end Time) {
	if end <= start {
		return
	}
	if len(r.gaps) >= maxGaps {
		copy(r.gaps, r.gaps[1:])
		r.gaps = r.gaps[:len(r.gaps)-1]
	}
	r.gaps = append(r.gaps, gap{start: start, end: end})
}

// equivOp is one step of a generated workload.
type equivOp struct {
	now    Time
	bytes  int
	occupy Duration // > 0 selects Occupy instead of Acquire
}

// runEquivalence drives the indexed and the linear placement through
// the same op stream and fails on the first diverging (start, done)
// pair.
func runEquivalence(t *testing.T, capacity int, overhead Duration, bytesPerSec float64, propagation Duration, ops []equivOp) {
	t.Helper()
	indexed := NewResource("equiv", capacity, overhead, bytesPerSec, propagation)
	linear := newLinearResource(capacity, overhead, bytesPerSec, propagation)
	for i, op := range ops {
		var s1, d1, s2, d2 Time
		if op.occupy > 0 {
			s1, d1 = indexed.Occupy(op.now, op.occupy)
			s2, d2 = linear.occupy(op.now, op.occupy)
		} else {
			s1, d1 = indexed.Acquire(op.now, op.bytes)
			s2, d2 = linear.acquire(op.now, op.bytes)
		}
		if s1 != s2 || d1 != d2 {
			t.Fatalf("op %d (now=%v bytes=%d occupy=%v): indexed (%v,%v) != linear (%v,%v); live gaps=%d",
				i, op.now, op.bytes, op.occupy, s1, d1, s2, d2, indexed.gaps.live)
		}
		if i%invariantEvery == 0 {
			checkGapTable(t, &indexed.gaps, linear.gaps)
		}
	}
	checkGapTable(t, &indexed.gaps, linear.gaps)
}

// invariantEvery spaces the full-table invariant checks of a long
// equivalence run (each one walks every slot).
const invariantEvery = 4093

// checkGapTable verifies the invariants gapTable.search relies on:
// each server's list is ordered by start and its gaps do not overlap;
// no consumed gap is listed; the live gaps sorted by record number are
// exactly the reference's gaps in its (age) order; the end bound covers
// every listed gap and the length bound every live one; and every
// list's suffix bound holds. Bounds may be
// loose; they must never be tight enough to hide a gap.
func checkGapTable(t *testing.T, g *gapTable, want []gap) {
	t.Helper()
	var live []gapEntry
	for k, l := range g.lists {
		if l.from < 0 || l.from > len(l.ents) {
			t.Fatalf("server %d: suffix bound index %d outside [0,%d]", k, l.from, len(l.ents))
		}
		for j, e := range l.ents {
			if e.end <= e.start {
				t.Fatalf("server %d entry %d: empty gap %v", k, j, e.gap)
			}
			if j > 0 && l.ents[j-1].end > e.start {
				t.Fatalf("server %d entry %d: %v overlaps or precedes %v", k, j, e.gap, l.ents[j-1].gap)
			}
			if e.end > g.maxEnd {
				t.Fatalf("server %d entry %d: end %v above the end bound %v", k, j, e.end, g.maxEnd)
			}
			if e.rec < g.oldest {
				continue // evicted, dropped at the next renumber
			}
			if e.rec >= g.next || g.rank[e.rec] != 1 {
				t.Fatalf("server %d entry %d: record %d (next %d) is not marked live", k, j, e.rec, g.next)
			}
			if j >= l.from && e.end-e.start >= l.short {
				t.Fatalf("server %d entry %d: %v breaks the suffix bound (from %d, short %v)", k, j, e.gap, l.from, l.short)
			}
			if e.end-e.start >= g.short {
				t.Fatalf("server %d entry %d: %v is not shorter than the length bound %v", k, j, e.gap, g.short)
			}
			live = append(live, e)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].rec < live[b].rec })
	marked := 0
	for _, m := range g.rank[g.oldest:g.next] {
		marked += int(m)
	}
	if len(live) != len(want) || len(live) != g.live || marked != g.live {
		t.Fatalf("live gaps: table %d listed %d marked %d, reference %d", g.live, len(live), marked, len(want))
	}
	for n, e := range live {
		if n > 0 && live[n-1].rec == e.rec {
			t.Fatalf("record %d listed twice", e.rec)
		}
		if e.gap != want[n] {
			t.Fatalf("live gap %d (record %d) is %v, reference has %v", n, e.rec, e.gap, want[n])
		}
	}
}

// equivStressOps generates a seeded op stream whose arrival times jump
// forward (opening gaps), linger (backfilling them), and occasionally
// jump backward (an op of a later request reaching the resource at an
// earlier virtual time, the case backfilling exists for).
func equivStressOps(seed uint64, n int, jumpEvery, backEvery int) []equivOp {
	rng := NewRNG(seed)
	ops := make([]equivOp, n)
	now := Time(0)
	for i := range ops {
		switch {
		case jumpEvery > 0 && rng.Intn(jumpEvery) == 0:
			now += Duration(rng.Intn(int(20 * Microsecond)))
		case backEvery > 0 && rng.Intn(backEvery) == 0:
			now -= Duration(rng.Intn(int(5 * Microsecond)))
			if now < 0 {
				now = 0
			}
		default:
			now += Duration(rng.Intn(int(100 * Nanosecond)))
		}
		if rng.Intn(10) == 0 {
			ops[i] = equivOp{now: now, occupy: Duration(rng.Intn(int(2*Microsecond)) + 1)}
		} else {
			ops[i] = equivOp{now: now, bytes: rng.Intn(4096)}
		}
	}
	return ops
}

// TestPlacementEquivalenceStress is the randomized 1M-op equivalence
// run (scaled down under -race, where the linear reference's O(gaps)
// scans are ~15x slower).
func TestPlacementEquivalenceStress(t *testing.T) {
	n := 1_000_000
	if raceEnabled || testing.Short() {
		n = 120_000
	}
	for _, tc := range []struct {
		name        string
		capacity    int
		overhead    Duration
		bytesPerSec float64
		propagation Duration
		seed        uint64
	}{
		{"single-server-bw", 1, 0, 16e9, 300 * Nanosecond, 1},
		{"multi-server", 7, 30 * Nanosecond, 4e9, 0, 2},
		{"overhead-only", 3, 50 * Nanosecond, 0, 100 * Nanosecond, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := equivStressOps(tc.seed, n, 40, 200)
			runEquivalence(t, tc.capacity, tc.overhead, tc.bytesPerSec, tc.propagation, ops)
		})
	}
}

// TestPlacementEquivalenceGapSaturated pins the regime the gap cap was
// added for: the table sits at maxGaps live windows, every record
// evicts the oldest, and most lookups miss — the linear reference's
// worst case (full scan plus 64 KiB memmove per record).
func TestPlacementEquivalenceGapSaturated(t *testing.T) {
	n := 120_000
	if raceEnabled || testing.Short() {
		n = 20_000
	}
	rng := NewRNG(99)
	ops := make([]equivOp, 0, n)
	now := Time(0)
	for i := 0; i < n; i++ {
		// Long forward leaps open a gap on almost every op; tiny
		// occasional backfills keep the consume path exercised.
		now += Duration(rng.Intn(int(Microsecond)) + int(100*Nanosecond))
		if rng.Intn(20) == 0 {
			back := now - Duration(rng.Intn(int(50*Microsecond)))
			if back < 0 {
				back = 0
			}
			ops = append(ops, equivOp{now: back, bytes: rng.Intn(64)})
		} else {
			ops = append(ops, equivOp{now: now, bytes: rng.Intn(256) + 1})
		}
	}
	runEquivalence(t, 1, 0, 64e9, 0, ops)
}

// interleavedOps generates the regime the gap index is tuned for (see
// BenchAcquireBackfillMix): arrivals alternate between the current
// front and a stage lagging it by lag, jittered by up to jitter, so two
// generations of windows interleave in age order. Backdated lookups
// either backfill the window straddling them or must find the
// earliest-starting window after them; one op in sixteen is an Occupy.
func interleavedOps(seed uint64, n int, lag, jitter Duration) []equivOp {
	rng := NewRNG(seed)
	ops := make([]equivOp, n)
	now := Time(0)
	for i := range ops {
		now += Duration(rng.Intn(int(20 * Nanosecond)))
		at := now
		if i%2 == 1 {
			at = max(0, now-lag+Duration(rng.Intn(int(jitter))))
		}
		if rng.Intn(16) == 0 {
			ops[i] = equivOp{now: at, occupy: Duration(rng.Intn(int(20*Nanosecond)) + 1)}
		} else {
			ops[i] = equivOp{now: at, bytes: 64 * (1 + rng.Intn(4))}
		}
	}
	return ops
}

// TestPlacementEquivalenceInterleavedGenerations holds the table at
// maxGaps under interleaved generations of windows: the pruning of
// blocks and leaves whose summaries mix both generations, the
// earliest-start search after a backdated arrival, lazy head-leaf
// summaries under constant eviction, and the root re-tightening after
// misses.
func TestPlacementEquivalenceInterleavedGenerations(t *testing.T) {
	n := 150_000
	if raceEnabled || testing.Short() {
		n = 30_000
	}
	for _, tc := range []struct {
		name        string
		capacity    int
		bytesPerSec float64
		jitter      Duration
		seed        uint64
	}{
		{"six-channel", 6, 25e9, 100 * Nanosecond, 11},
		{"single-server", 1, 25e9, 100 * Nanosecond, 12},
		{"wide-jitter", 4, 12e9, 2 * Microsecond, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := interleavedOps(tc.seed, n, 16*Microsecond, tc.jitter)
			runEquivalence(t, tc.capacity, 0, tc.bytesPerSec, 0, ops)
		})
	}
}

// TestPlacementEquivalenceShortGapsLongOps replays
// BenchAcquireShortGapsLongOps's arrivals: six servers, 39 ns
// operations, ~11 ns gaps at the frontier, and lagging arrivals facing
// ~30 gaps per server that are all too short. It pins the suffix bound
// set by fruitless scans; the mixed case also backfills short Occupy
// calls into those gaps, splitting entries inside the bounded suffix
// and in front of it.
func TestPlacementEquivalenceShortGapsLongOps(t *testing.T) {
	n := 100_000
	if raceEnabled || testing.Short() {
		n = 20_000
	}
	for _, tc := range []struct {
		name       string
		shortEvery int // one op in shortEvery is a short Occupy; 0: none
	}{
		{"long-only", 0},
		{"mixed-lengths", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := shortGapArrivals{rng: NewRNG(13)}
			rng := NewRNG(17)
			ops := make([]equivOp, n)
			for i := range ops {
				ops[i] = equivOp{now: a.next()}
				if tc.shortEvery > 0 && rng.Intn(tc.shortEvery) == 0 {
					ops[i].occupy = Duration(rng.Intn(int(12*Nanosecond))) + Nanosecond
				}
			}
			runEquivalence(t, 6, 39*Nanosecond, 0, 0, ops)
		})
	}
}

// TestPlacementEquivalenceGapEdges lands backdated arrivals exactly on
// remembered gap starts and ends (taken from the reference's list), and
// often repeat the previous arrival time, so predecessor lookups meet
// start == now on every path: at the newest entry, at the finger left
// by the previous lookup, and mid-bisection.
func TestPlacementEquivalenceGapEdges(t *testing.T) {
	n := 60_000
	if raceEnabled || testing.Short() {
		n = 15_000
	}
	indexed := NewResource("equiv", 3, 0, 1e9, 0) // 1 byte = 1 ns
	linear := newLinearResource(3, 0, 1e9, 0)
	rng := NewRNG(23)
	now, at := Time(0), Time(0)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(6); {
		case r < 2:
			// Repeat the previous arrival time: its lookup left the
			// finger on an entry that starts exactly at now.
		case r < 4 && len(linear.gaps) > 0:
			g := linear.gaps[rng.Intn(len(linear.gaps))]
			at = g.start
			if r == 3 {
				at = g.end
			}
		default:
			now += Duration(rng.Intn(300)) * Nanosecond
			at = now
		}
		bytes := 1 + rng.Intn(160)
		s1, d1 := indexed.Acquire(at, bytes)
		s2, d2 := linear.acquire(at, bytes)
		if s1 != s2 || d1 != d2 {
			t.Fatalf("op %d (now=%v bytes=%d): indexed (%v,%v) != linear (%v,%v)", i, at, bytes, s1, d1, s2, d2)
		}
		if i%invariantEvery == 0 {
			checkGapTable(t, &indexed.gaps, linear.gaps)
		}
	}
	checkGapTable(t, &indexed.gaps, linear.gaps)
}

// TestPlacementEquivalenceAcrossReset resets a saturated resource
// mid-stream: afterwards it must place exactly like a fresh reference,
// with every summary and bitmap cleared.
func TestPlacementEquivalenceAcrossReset(t *testing.T) {
	ops := interleavedOps(21, 3*maxGaps, 16*Microsecond, 100*Nanosecond)
	indexed := NewResource("equiv", 3, 0, 25e9, 0)
	for round := 0; round < 3; round++ {
		linear := newLinearResource(3, 0, 25e9, 0)
		for i, op := range ops {
			s1, d1 := indexed.Acquire(op.now, op.bytes)
			s2, d2 := linear.acquire(op.now, op.bytes)
			if s1 != s2 || d1 != d2 {
				t.Fatalf("round %d op %d: indexed (%v,%v) != linear (%v,%v)", round, i, s1, d1, s2, d2)
			}
		}
		checkGapTable(t, &indexed.gaps, linear.gaps)
		indexed.Reset()
		checkGapTable(t, &indexed.gaps, nil)
		if g := &indexed.gaps; g.maxEnd != 0 || g.next != 0 || g.oldest != 0 {
			t.Fatalf("round %d: Reset left end bound %v, records [%d,%d)", round, g.maxEnd, g.oldest, g.next)
		}
	}
}

// TestPlacementEquivalenceBoundaryPatterns hits the structural edges of
// gapTable: exact-fit consumes, zero-length remainders, eviction while
// splitting, and repeated Reset.
func TestPlacementEquivalenceBoundaryPatterns(t *testing.T) {
	// Exact fits: every backfill consumes a whole gap (no remainders).
	ops := []equivOp{
		{now: Microsecond, bytes: 1000},  // gap [0, 1us)
		{now: 0, bytes: 1000},            // consumes it exactly
		{now: 3 * Microsecond, bytes: 0}, // overhead-free
		{now: 2 * Microsecond, occupy: Microsecond},
	}
	runEquivalence(t, 1, 0, 1e9, 0, ops)

	// Eviction pressure with splits: fill past maxGaps, then split many.
	rng := NewRNG(7)
	long := make([]equivOp, 0, 3*maxGaps)
	now := Time(0)
	for i := 0; i < 2*maxGaps; i++ {
		now += 2 * Microsecond
		long = append(long, equivOp{now: now, bytes: 64})
	}
	for i := 0; i < maxGaps; i++ {
		long = append(long, equivOp{now: Duration(rng.Intn(int(now))), bytes: rng.Intn(512) + 1})
	}
	runEquivalence(t, 2, 10*Nanosecond, 8e9, 50*Nanosecond, long)
}

// fuzzOps decodes a fuzz input into an op stream, three bytes per op:
// the low two bits of the first pick how the arrival time moves (a
// forward leap, a backdated step, a picosecond nudge, or none), its top
// bit selects Occupy (length from the third byte) over Acquire (size
// from its middle bits), and the next two bytes give the magnitude.
// Inputs are capped at 4096 ops so each run stays fast.
func fuzzOps(data []byte) []equivOp {
	var ops []equivOp
	now := Time(0)
	for ; len(data) >= 3 && len(ops) < 4096; data = data[3:] {
		k, mag := data[0], Duration(data[1])<<8|Duration(data[2])
		switch k & 3 {
		case 0:
			now += mag * Nanosecond
		case 1:
			now = max(0, now-mag*Nanosecond)
		case 2:
			now += mag
		}
		if k&0x80 != 0 {
			ops = append(ops, equivOp{now: now, occupy: (Duration(data[2]) + 1) * Nanosecond})
		} else {
			ops = append(ops, equivOp{now: now, bytes: int(k>>2&0x1f) * 32})
		}
	}
	return ops
}

// FuzzPlacementEquivalence drives the indexed and the linear placement
// through fuzz-chosen op streams on a resource of 1-8 servers (first
// byte) and requires identical (start, done) pairs and a consistent
// index. Run it with
//
//	go test -run '^$' -fuzz '^FuzzPlacementEquivalence$' ./internal/sim
func FuzzPlacementEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 3, 232, 1, 3, 232, 0x88, 0, 50})
	f.Add([]byte{3, 0, 0, 16, 0, 8, 20, 1, 0, 4, 0x85, 0, 3, 20, 0, 2, 1, 0, 1})
	// A long random stream: thousands of windows, backdated arrivals.
	rng := NewRNG(41)
	long := []byte{5}
	for i := 0; i < 3000; i++ {
		long = append(long, byte(rng.Intn(256)), byte(rng.Intn(4)), byte(rng.Intn(256)))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runEquivalence(t, 1+int(data[0]%8), 0, 1e9, 0, fuzzOps(data[1:]))
	})
}

func TestResourceResetClearsGapTable(t *testing.T) {
	r := NewResource("x", 1, 0, 1e9, 0)
	r.Acquire(Microsecond, 100) // opens gap [0, 1us)
	if r.gaps.live != 1 {
		t.Fatalf("live gaps=%d, want 1", r.gaps.live)
	}
	r.Reset()
	if r.gaps.live != 0 {
		t.Fatalf("Reset left %d gaps", r.gaps.live)
	}
	// Post-reset behaviour matches a fresh resource.
	s, _ := r.Acquire(0, 100)
	if s != 0 {
		t.Fatalf("post-reset start=%v", s)
	}
}
