package obs

import "sort"

// TopK is a deterministic space-saving (Metwally et al.) heavy-hitter
// sketch over uint64 keys: it tracks at most k candidate keys with
// approximate counts, guaranteeing that any key whose true frequency
// exceeds observations/k is present. The scale-out cluster registers
// one per shard to detect hot keys worth migrating.
//
// Like Registry it is single-goroutine per job: Observe is
// called from the request loop, Top/Reset from the same goroutine at
// window boundaries. All tie-breaks are by key value, so the sketch's
// contents — and everything decided from them — are independent of
// scheduling and map iteration order.
type TopK struct {
	k       int
	entries []TopKEntry
	pos     map[uint64]int // key -> index in entries
	seen    int64
}

// TopKEntry is one tracked key with its (over-)estimated count.
type TopKEntry struct {
	Key   uint64
	Count int64
}

// NewTopK returns a sketch tracking at most k keys (k >= 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("obs: TopK needs k >= 1")
	}
	return &TopK{k: k, pos: make(map[uint64]int, k)}
}

// Observe records one occurrence of key. Amortized O(1) for tracked
// keys; replacing the coldest candidate is an O(k) scan (k is small).
func (t *TopK) Observe(key uint64) {
	t.seen++
	if i, ok := t.pos[key]; ok {
		t.entries[i].Count++
		return
	}
	if len(t.entries) < t.k {
		t.pos[key] = len(t.entries)
		t.entries = append(t.entries, TopKEntry{Key: key, Count: 1})
		return
	}
	// Space-saving replacement: the new key inherits the minimum count
	// plus one (an upper bound on its true frequency). The victim is
	// the minimum-count entry with the largest key, a deterministic
	// choice.
	mi := 0
	for i := 1; i < len(t.entries); i++ {
		e, m := t.entries[i], t.entries[mi]
		if e.Count < m.Count || (e.Count == m.Count && e.Key > m.Key) {
			mi = i
		}
	}
	delete(t.pos, t.entries[mi].Key)
	t.entries[mi] = TopKEntry{Key: key, Count: t.entries[mi].Count + 1}
	t.pos[key] = mi
}

// Observed reports the total number of observations.
func (t *TopK) Observed() int64 { return t.seen }

// Top appends the tracked entries, hottest first (count descending,
// key ascending on ties), onto dst and returns the grown slice. It is
// a window-boundary query, not a request-path one.
func (t *TopK) Top(dst []TopKEntry) []TopKEntry {
	base := len(dst)
	dst = append(dst, t.entries...)
	view := dst[base:]
	sort.Slice(view, func(i, j int) bool {
		if view[i].Count != view[j].Count {
			return view[i].Count > view[j].Count
		}
		return view[i].Key < view[j].Key
	})
	return dst
}

// Reset clears the sketch for the next detection window, keeping its
// capacity.
func (t *TopK) Reset() {
	t.entries = t.entries[:0]
	t.seen = 0
	for k := range t.pos {
		delete(t.pos, k)
	}
}
