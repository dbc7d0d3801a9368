package sim

// gapTable remembers a resource's backfillable idle windows ("gaps").
// Its contract is bit-exact equivalence with the original linear scan
// over an age-ordered list (placement_equiv_test.go): the winner for
// (now, occupy) is the age-earliest gap achieving the minimal feasible
// start s = max(now, g.start) with s+occupy <= g.end, and recording a
// gap into a full table first evicts the oldest live one.
//
// A gap is opened behind one server's frontier and a backfill only
// splits it, so one server's gaps never overlap. The table keeps one
// list per server, ordered by start and therefore also by end: a
// frontier gap is an append, a backfill rewrites the consumed entry in
// place (plus one insert when both remainders survive), and only a
// server's last entry starting at or before now can cover
// [now, now+occupy]. Age lives in a record number per entry, and
// eviction advances a threshold instead of splicing. DESIGN.md §14
// walks through the search and its bounds.
type gapTable struct {
	lists  []gapList
	rank   []int32  // per record: 1 while live, 0 once consumed; ranks while renumbering
	maxEnd Time     // bounds every listed gap's end
	short  Duration // every live gap is shorter than this
	oldest int32    // records below it are evicted
	next   int32    // record number of the next gap
	live   int      // live gaps
	limit  int      // live gaps kept; recording one more evicts the oldest
}

// gapList is one server's gaps in start order.
type gapList struct {
	ents   []gapEntry
	from   int      // every live entry at index >= from ...
	short  Duration // ... is shorter than short
	pos    int      // search scratch: the last entry starting at or before now
	finger int      // where the last backdated predecessor lookup ended
}

// gapEntry is a listed gap and its record number, which orders gaps by
// age across servers. An entry whose record is below gapTable.oldest
// was evicted and is dropped at the next renumber.
type gapEntry struct {
	gap
	rec int32
}

// records bounds the record numbers handed out between renumbers,
// twice the live limit. Every live or evicted entry holds one, so the
// lists never hold more entries than this.
func (t *gapTable) records() int { return 2 * t.limit }

// gapArena is one allocation holding every list's initial share and
// the per-record marks, sized for the model's limit, maxGaps.
type gapArena struct {
	ents [2 * maxGaps]gapEntry
	rank [2 * maxGaps]int32
}

func newGapTable(servers int) gapTable {
	return gapTable{lists: make([]gapList, servers), limit: maxGaps}
}

// alloc splits the arena's first records() slots evenly across the
// servers; a lower limit (tests only) leaves the rest unused. A list
// that outgrows its share reallocates alone (append over a capped
// slice).
func (t *gapTable) alloc() {
	a := new(gapArena)
	t.rank = a.rank[:t.records()]
	share := t.records() / len(t.lists)
	for k := range t.lists {
		t.lists[k].ents = a.ents[k*share : k*share : (k+1)*share]
	}
}

// mayFit answers most misses in O(1) from the table's bounds: no gap
// ends late enough or is long enough.
func (t *gapTable) mayFit(now Time, occupy Duration) bool {
	return t.maxEnd >= now+occupy && occupy < t.short
}

// search returns the server and list index of the gap the linear scan
// would have chosen for an operation of length occupy arriving at now,
// and the feasible start within it; ok is false if no gap fits.
func (t *gapTable) search(now Time, occupy Duration) (k, i int, start Time, ok bool) {
	target := now + occupy
	bestK, bestRec := -1, int32(0)
	for k := range t.lists {
		l := &t.lists[k]
		n := l.fits(occupy)
		if n == 0 || l.ents[n-1].end < target {
			l.pos = n // ordered by end: nothing on this server fits
			continue
		}
		l.pos = l.pred(n, now)
		if l.pos < 0 {
			continue
		}
		if e := &l.ents[l.pos]; e.end >= target && e.rec >= t.oldest && (bestK < 0 || e.rec < bestRec) {
			bestK, bestRec = k, e.rec
		}
	}
	if bestK >= 0 {
		return bestK, t.lists[bestK].pos, now, true
	}
	bestStart := MaxTime
	for k := range t.lists {
		l := &t.lists[k]
		first, stop := l.pos+1, l.fits(occupy)
		j := first
		for ; j < stop; j++ {
			e := &l.ents[j]
			if e.start > bestStart {
				break
			}
			if e.end-e.start >= occupy && e.rec >= t.oldest {
				if e.start < bestStart || e.rec < bestRec {
					bestK, bestRec, bestStart = k, e.rec, e.start
					i = j
				}
				break
			}
		}
		if j == stop && first < stop {
			l.from, l.short = first, occupy
		}
	}
	if bestK < 0 {
		// A full miss: re-tighten the table's bounds from the lists' last
		// ends and whole-list suffix bounds.
		t.maxEnd, t.short = 0, 0
		for k := range t.lists {
			l := &t.lists[k]
			if n := len(l.ents); n > 0 {
				t.maxEnd = max(t.maxEnd, l.ents[n-1].end)
			}
			if l.from == 0 {
				t.short = max(t.short, l.short)
			} else {
				t.short = MaxTime
			}
		}
		return 0, 0, 0, false
	}
	return bestK, i, bestStart, true
}

// fits returns how many leading entries can hold an operation of
// length occupy: the suffix bound rules out the rest.
func (l *gapList) fits(occupy Duration) int {
	if occupy >= l.short {
		return l.from
	}
	return len(l.ents)
}

// pred returns the index of the last of the first n entries that
// starts at or before now, or -1. Arrivals at the frontier land past
// the newest entry; backdated ones land near where the previous
// backdated lookup ended, so it gallops from that finger and bisects.
func (l *gapList) pred(n int, now Time) int {
	ents := l.ents[:n]
	if ents[n-1].start <= now {
		return n - 1
	}
	lo, hi := -1, n-1 // ents[lo] starts at or before now (lo == -1: none), ents[hi] after it
	if f := min(l.finger, n-2); f >= 0 && ents[f].start <= now {
		lo = f
		step := 1
		for ; lo+step < hi && ents[lo+step].start <= now; step *= 2 {
			lo += step
		}
		hi = min(hi, lo+step)
	} else if f >= 0 {
		hi = f
		step := 1
		for ; hi-step >= 0 && ents[hi-step].start > now; step *= 2 {
			hi -= step
		}
		lo = max(lo, hi-step)
	}
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if ents[m].start <= now {
			lo = m
		} else {
			hi = m
		}
	}
	l.finger = lo
	return lo
}

// take consumes the gap search returned for an operation occupying
// [s, s+occupy) and records its remainders in its place, earlier one
// first, exactly as the linear scan appended them.
func (t *gapTable) take(k, i int, s Time, occupy Duration) {
	l := &t.lists[k]
	g := l.ents[i].gap
	t.rank[l.ents[i].rec] = 0
	t.live--
	lo, hi := gap{g.start, s}, gap{s + occupy, g.end}
	switch {
	case lo.end > lo.start && hi.end > hi.start:
		l.ents[i] = t.record(lo)
		l.ents = append(l.ents, gapEntry{})
		copy(l.ents[i+2:], l.ents[i+1:])
		l.ents[i+1] = t.record(hi)
		if i < l.from {
			l.from++
		}
	case lo.end > lo.start:
		l.ents[i] = t.record(lo)
	case hi.end > hi.start:
		l.ents[i] = t.record(hi)
	default:
		l.ents = append(l.ents[:i], l.ents[i+1:]...)
		if i < l.from {
			l.from--
		}
	}
	t.renumberIfFull()
}

// push appends a gap opened behind server k's frontier, which lies past
// every gap the server already has.
func (t *gapTable) push(k int, g gap) {
	if t.rank == nil {
		t.alloc()
	}
	l := &t.lists[k]
	l.ents = append(l.ents, t.record(g))
	l.short = max(l.short, g.end-g.start+1)
	t.short = max(t.short, l.short)
	t.maxEnd = max(t.maxEnd, g.end)
	t.renumberIfFull()
}

// record numbers g as the newest gap, evicting the oldest live gap
// first when the table is full (old gaps are the least likely to be
// backfilled by future arrivals).
func (t *gapTable) record(g gap) gapEntry {
	if t.live >= t.limit {
		for t.rank[t.oldest] == 0 {
			t.oldest++ // consumed records need no eviction
		}
		t.oldest++
		t.live--
	}
	rec := t.next
	t.next++
	t.rank[rec] = 1
	t.live++
	return gapEntry{g, rec}
}

// renumberIfFull keeps room for the two records a backfill may take.
// When the record numbers run out it renumbers the live gaps densely in
// age order and drops evicted entries in the same pass; at least
// limit records pass between renumbers, so this amortizes to O(1).
func (t *gapTable) renumberIfFull() {
	if int(t.next) <= t.records()-2 {
		return
	}
	live := int32(0)
	for rec := t.oldest; rec < t.next; rec++ {
		if t.rank[rec] != 0 {
			t.rank[rec] = live
			live++
		}
	}
	for k := range t.lists {
		l := &t.lists[k]
		n, from := 0, -1
		for j, e := range l.ents {
			if j == l.from {
				from = n
			}
			if e.rec < t.oldest {
				continue
			}
			e.rec = t.rank[e.rec]
			l.ents[n] = e
			n++
		}
		if from < 0 {
			from = n
		}
		l.ents, l.from = l.ents[:n], from
	}
	clear(t.rank[live:t.next])
	for rec := range t.rank[:live] {
		t.rank[rec] = 1
	}
	t.oldest, t.next = 0, live
}

// reset clears the table, keeping its allocations.
func (t *gapTable) reset() {
	for k := range t.lists {
		t.lists[k] = gapList{ents: t.lists[k].ents[:0]}
	}
	clear(t.rank[:t.next])
	t.maxEnd, t.short, t.oldest, t.next, t.live = 0, 0, 0, 0, 0
}
