package kvs

import (
	"fmt"
	"hash"
	"sort"

	"rambda/internal/memspace"
)

// Checkpoint and rollback let one preloaded store serve many
// experiment points: a point runs against the store under a checkpoint,
// and Rollback returns the store to the checkpointed state, byte for
// byte, so the next point sees exactly what a fresh preload would have
// built.

// undoLog is a checkpoint: the journal of overwritten bytes plus the
// allocator state and op counters at the time it was taken. Its slices
// keep their capacity across rollbacks, so a checkpointed store that
// is rolled back after every point stops allocating once they reach
// the points' high-water mark.
type undoLog struct {
	recs []undoRec
	old  []byte // the records' bytes, back to back

	slab slabState
	ops  opCounters
}

// undoRec is one journaled write: n bytes at addr, whose old contents
// follow the previous record's in undoLog.old.
type undoRec struct {
	addr memspace.Addr
	n    int
}

func (u *undoLog) record(addr memspace.Addr, b []byte) {
	u.old = append(u.old, b...)
	u.recs = append(u.recs, undoRec{addr: addr, n: len(b)})
}

// Checkpoint marks the store's current state as the one Rollback
// returns to. From here on every write journals the bytes it
// overwrites; a Checkpoint while one is active drops the journal and
// moves the mark to now.
func (s *Store) Checkpoint() {
	if s.undo == nil {
		s.undo = &undoLog{}
	}
	u := s.undo
	u.recs, u.old = u.recs[:0], u.old[:0]
	s.slab.save(&u.slab)
	u.ops = s.opCounters
}

// Rollback returns the store to its checkpoint: it replays the journal
// backwards, so each byte ends at the value it had before its first
// write, and restores the allocator and the op counters. The
// checkpoint stays active, so the store can be used and rolled back
// again. Rollback panics if no checkpoint is active.
func (s *Store) Rollback() {
	u := s.undo
	if u == nil {
		panic("kvs: Rollback without a checkpoint")
	}
	end := len(u.old)
	for i := len(u.recs) - 1; i >= 0; i-- {
		r := u.recs[i]
		copy(s.at(r.addr, r.n), u.old[end-r.n:end])
		end -= r.n
	}
	u.recs, u.old = u.recs[:0], u.old[:0]
	s.slab.restore(&u.slab)
	s.opCounters = u.ops
}

// JournalLen reports the writes journaled since the checkpoint (or the
// last Rollback); 0 with no checkpoint active. A point that only reads
// journals nothing.
func (s *Store) JournalLen() int {
	if s.undo == nil {
		return 0
	}
	return len(s.undo.recs)
}

// AdoptInto maps the store's index and pool into space as kind, at the
// addresses the store already uses (memspace.Space.Adopt). The regions
// must start at space's bump pointer, as they do when the store was
// the first allocation of a space of its own and is adopted first.
func (s *Store) AdoptInto(space *memspace.Space, kind memspace.Kind) {
	space.Adopt(s.index, kind)
	space.Adopt(s.pool, kind)
}

// HashState writes the store's whole state into h: the index and pool
// bytes, the allocator's bump pointer, non-empty free lists (by class)
// and counters, and Stats. Two stores with the same state serve every
// later operation identically, so the digest compares a rolled-back
// store with a fresh one.
func (s *Store) HashState(h hash.Hash) {
	h.Write(s.index.Bytes())
	h.Write(s.pool.Bytes())
	classes := make([]int, 0, len(s.slab.free))
	for c, list := range s.slab.free {
		if len(list) > 0 {
			classes = append(classes, c)
		}
	}
	sort.Ints(classes)
	for _, c := range classes {
		fmt.Fprintf(h, "free%d:%x|", c, s.slab.free[c])
	}
	fmt.Fprintf(h, "next%x alloc%d freed%d stats%+v",
		uint64(s.slab.next), s.slab.allocated, s.slab.freed, s.Stats())
}
