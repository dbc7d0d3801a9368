package sim

import "math/bits"

// gapTable indexes a resource's backfillable idle windows so that
// Resource.place no longer pays O(gaps) per Acquire. It is the indexed
// replacement for the original flat `[]gap` slice, and its contract is
// bit-exact equivalence with the original linear scan (see
// placement_equiv_test.go):
//
//   - the winning gap for (now, occupy) is the age-earliest gap that
//     achieves the minimal feasible start s = max(now, g.start) subject
//     to s+occupy <= g.end;
//   - when the table is full, recording a new gap evicts the oldest
//     live gap.
//
// Both rules are age-sensitive: two gaps can tie on feasible start (the
// common case is several gaps straddling `now`, all feasible at s ==
// now), and the original scan breaks that tie toward the gap recorded
// first. A start-ordered structure cannot reproduce that order, so the
// table keeps gaps in age order — a sliding window over a flat buffer —
// and indexes that order with a three-level tree of summaries (min
// start, max end, max length): a leaf per gapLeafSize slots, a block
// per gapBlockLeaves leaves, and the root. Each inner summary is the
// merge of its children's.
//
// Search walks the blocks of the live window in age order, descends
// only into blocks that can hold a gap that fits (maxEnd >= now+occupy
// and maxLen >= occupy) and that starts strictly before the best
// candidate so far (the original scan's strict-< replacement rule),
// applies the same test to the leaves inside, and tests the live slots
// (a bitmap per leaf) of the leaves that survive. The first gap
// feasible at s == now ends the search: no later gap can strictly beat
// it. A miss on every gap is answered by the root alone.
//
// Updates touch one leaf path. Recording a gap widens its leaf, its
// block and the root. Consuming a gap rebuilds its leaf only when the
// gap defined one of the leaf's extremes, and re-merges the block only
// when the old leaf summary may have defined one of the block's; the
// root shrinks back to the merge of the blocks after a search that
// misses. Evicting the oldest gap leaves the head leaf's summary as it
// was until the head moves past the leaf. Summaries may therefore
// over-approximate what they summarize; a too-generous summary can only
// cause a fruitless scan, never a different winner, so the bit-exact
// contract is unaffected.
//
// Consumed gaps become tombstones (start=MaxTime, end=0 — a window no
// request can fit) instead of being spliced out, and eviction advances
// the window head, so both are O(1) in buffer traffic where the slice
// paid an O(n) memmove. Appends slide the tail forward; when the tail
// reaches the end of the buffer the live gaps are compacted back to the
// front. The buffer is 2x maxGaps, so each compaction is separated by
// at least maxGaps appends and amortizes to O(1) per append.
type gapTable struct {
	buf    []gap                 // fixed gapSlots slots; live window is [head, tail)
	occ    [gapLeaves]uint64     // per-leaf live-slot bitmaps
	leaves [gapLeaves]gapSummary // one per gapLeafSize slots
	blocks [gapBlocks]gapSummary // one per gapBlockLeaves leaves
	root   gapSummary            // bounds every live gap
	head   int                   // oldest slot (may be a tombstone)
	tail   int                   // one past the newest slot
	live   int                   // live (non-tombstone) gaps in [head, tail)
}

// gapSummary bounds a run of slots. Tombstones are neutral: they cannot
// lower minStart, raise maxEnd, or raise maxLen, so a summary over a
// whole physical run stays valid.
type gapSummary struct {
	minStart Time
	maxEnd   Time
	maxLen   Duration
}

const (
	gapSlots       = 2 * maxGaps
	gapLeafShift   = 5 // 32 slots per leaf (at most 64: one bitmap word)
	gapLeafSize    = 1 << gapLeafShift
	gapLeaves      = gapSlots / gapLeafSize
	gapBlockShift  = 4 // 16 leaves per block
	gapBlockLeaves = 1 << gapBlockShift
	gapBlocks      = gapLeaves / gapBlockLeaves
)

// deadGap marks a consumed or evicted slot. max(now, MaxTime)+occupy
// can never sit inside [MaxTime, 0), so tombstones fail every
// feasibility test without a dedicated branch (the fit check is written
// end-s >= occupy, which cannot overflow for any slot state).
var deadGap = gap{start: MaxTime, end: 0}

// deadSummary bounds an empty run: every search skips it.
var deadSummary = gapSummary{minStart: MaxTime}

func newGapTable() *gapTable {
	t := &gapTable{buf: make([]gap, gapSlots)}
	for i := range t.buf {
		t.buf[i] = deadGap
	}
	t.reset()
	return t
}

// len reports the number of live gaps.
func (t *gapTable) len() int { return t.live }

// widen grows s to cover g.
func (s *gapSummary) widen(g gap) {
	s.minStart = min(s.minStart, g.start)
	s.maxEnd = max(s.maxEnd, g.end)
	s.maxLen = max(s.maxLen, g.end-g.start)
}

// admits reports whether the run s summarizes can hold a gap that ends
// at or after target, is at least occupy long, and starts before
// before.
func (s *gapSummary) admits(target Time, occupy Duration, before Time) bool {
	return s.maxEnd >= target && s.maxLen >= occupy && s.minStart < before
}

// mergeSummaries returns the smallest summary covering every summary
// in run.
func mergeSummaries(run []gapSummary) gapSummary {
	m := deadSummary
	for _, s := range run {
		m.minStart = min(m.minStart, s.minStart)
		m.maxEnd = max(m.maxEnd, s.maxEnd)
		m.maxLen = max(m.maxLen, s.maxLen)
	}
	return m
}

// add appends a gap as the newest entry, evicting the oldest live gap
// first when the table is at capacity — the same drop-oldest policy the
// flat slice used, but O(1) instead of an O(n) memmove.
func (t *gapTable) add(g gap) {
	if t.live >= maxGaps {
		t.evictOldest()
	}
	if t.tail == gapSlots {
		t.compact()
	}
	slot := t.tail
	t.tail++
	t.live++
	t.buf[slot] = g
	leaf := slot >> gapLeafShift
	t.occ[leaf] |= 1 << (slot & (gapLeafSize - 1))
	t.leaves[leaf].widen(g)
	t.blocks[leaf>>gapBlockShift].widen(g)
	t.root.widen(g)
}

// evictOldest tombstones the oldest live gap. Evictions walk the head
// leaf front to back, so its summary is left as is — an
// over-approximation while the leaf still holds live gaps — and is
// rebuilt once the head has moved past the leaf.
func (t *gapTable) evictOldest() {
	from := t.head >> gapLeafShift
	for t.buf[t.head] == deadGap {
		t.head++
	}
	t.buf[t.head] = deadGap
	t.occ[t.head>>gapLeafShift] &^= 1 << (t.head & (gapLeafSize - 1))
	t.live--
	t.head++
	for leaf := from; leaf < t.head>>gapLeafShift; leaf++ {
		t.refresh(leaf)
	}
}

// take removes and returns the gap at slot (previously returned by
// search). Its leaf is rebuilt only when the gap defined one of the
// leaf's extremes: a gap strictly inside all three bounds cannot
// change them.
func (t *gapTable) take(slot int) gap {
	g := t.buf[slot]
	t.buf[slot] = deadGap
	leaf := slot >> gapLeafShift
	t.occ[leaf] &^= 1 << (slot & (gapLeafSize - 1))
	t.live--
	if s := &t.leaves[leaf]; g.start <= s.minStart || g.end >= s.maxEnd || g.end-g.start >= s.maxLen {
		t.refresh(leaf)
	}
	return g
}

// refresh rebuilds leaf i's summary from its slots. Tombstones are
// summary-neutral, so a straight sweep over the leaf needs no bitmap.
// The leaf's block is re-merged only if the old leaf summary may have
// defined one of the block's extremes. The root is left to shrink
// lazily (see search).
func (t *gapTable) refresh(i int) {
	s := deadSummary
	for _, g := range t.buf[i<<gapLeafShift : (i+1)<<gapLeafShift] {
		s.widen(g)
	}
	old := t.leaves[i]
	t.leaves[i] = s
	b := i >> gapBlockShift
	if blk := &t.blocks[b]; old.minStart == blk.minStart || old.maxEnd == blk.maxEnd || old.maxLen == blk.maxLen {
		*blk = mergeSummaries(t.leaves[b<<gapBlockShift : (b+1)<<gapBlockShift])
	}
}

// compact slides the live gaps back to the front of the buffer in age
// order and rebuilds the bitmaps and every summary.
func (t *gapTable) compact() {
	n := 0
	for i := t.head; i < t.tail; i++ {
		if g := t.buf[i]; g != deadGap {
			t.buf[n] = g
			n++
		}
	}
	for i := n; i < t.tail; i++ {
		t.buf[i] = deadGap
	}
	t.head, t.tail = 0, n
	for i := range t.leaves {
		lo, hi := i<<gapLeafShift, min((i+1)<<gapLeafShift, n)
		if lo >= hi {
			t.occ[i], t.leaves[i] = 0, deadSummary
			continue
		}
		s := deadSummary
		for _, g := range t.buf[lo:hi] {
			s.widen(g)
		}
		t.occ[i], t.leaves[i] = 1<<(hi-lo)-1, s
	}
	for b := range t.blocks {
		t.blocks[b] = mergeSummaries(t.leaves[b<<gapBlockShift : (b+1)<<gapBlockShift])
	}
	t.root = mergeSummaries(t.blocks[:])
}

// search returns the slot of the gap the original linear scan would
// have chosen for an operation of length occupy arriving at now, and
// the feasible start within it, or slot -1 if no gap fits.
func (t *gapTable) search(now Time, occupy Duration) (slot int, start Time) {
	target := now + occupy
	// Any feasible gap ends at or after now+occupy (s >= now always) and
	// is at least occupy long, and it can only displace the best
	// candidate so far by starting strictly before it. bestStart starts
	// at MaxTime, which no live gap's start reaches, so the same test
	// admits every run that could hold a first candidate.
	best, bestStart := -1, MaxTime
	if !t.root.admits(target, occupy, bestStart) {
		return -1, 0
	}
	// Only the leaves of the live window [head, tail) can hold a gap.
	first, last := t.head>>gapLeafShift, (t.tail-1)>>gapLeafShift
	for b := first >> gapBlockShift; b <= last>>gapBlockShift; b++ {
		if !t.blocks[b].admits(target, occupy, bestStart) {
			continue
		}
		for leaf := max(first, b<<gapBlockShift); leaf <= min(last, (b+1)<<gapBlockShift-1); leaf++ {
			if !t.leaves[leaf].admits(target, occupy, bestStart) {
				continue
			}
			lo := leaf << gapLeafShift
			// Only live slots carry a set bit, and ascending bit order is
			// age order, so the scan tests exactly the live gaps the
			// original slot walk would have tested, in the same order.
			for mask := t.occ[leaf]; mask != 0; mask &= mask - 1 {
				i := lo + bits.TrailingZeros64(mask)
				g := t.buf[i]
				s := max(now, g.start)
				if g.end-s < occupy {
					continue
				}
				if s == now {
					// Age-earliest covering gap: nothing later can
					// strictly improve on it, exactly as in the linear
					// scan.
					return i, s
				}
				if s < bestStart {
					best, bestStart = i, s
				}
			}
		}
	}
	if best < 0 {
		// A full miss: re-tighten the root to the merge of the blocks, so
		// that the next query no block can admit is again answered by the
		// root alone.
		t.root = mergeSummaries(t.blocks[:])
		return -1, 0
	}
	return best, bestStart
}

// reset clears the table, keeping the allocation.
func (t *gapTable) reset() {
	for i := t.head; i < t.tail; i++ {
		t.buf[i] = deadGap
	}
	t.head, t.tail, t.live = 0, 0, 0
	t.occ = [gapLeaves]uint64{}
	for i := range t.leaves {
		t.leaves[i] = deadSummary
	}
	for i := range t.blocks {
		t.blocks[i] = deadSummary
	}
	t.root = deadSummary
}
