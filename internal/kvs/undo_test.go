package kvs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"rambda/internal/memspace"
)

// undoKeys is the key universe of the rollback tests: tag-and-bucket
// colliding pairs, then plain keys, the first undoPreloaded of which
// the fixture preloads.
const (
	undoKeys      = 72
	undoPreloaded = 40
)

// undoFixture builds a small, chained store (8 buckets hold 56 slots)
// with undoPreloaded keys inserted, plus the key universe.
func undoFixture() (*Store, [][]byte) {
	s := New(memspace.New(), Config{Buckets: 8, PoolBytes: 1 << 18, Kind: memspace.KindDRAM})
	keys := collidingKeys(s.mask, 4)
	for i := len(keys); i < undoKeys; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user%0*d", 1+i%12, i)))
	}
	val := make([]byte, 46)
	for i, k := range keys[:undoPreloaded] {
		val[0] = byte(i)
		if _, err := s.PutInto(nil, k, val); err != nil {
			panic(err)
		}
	}
	return s, keys
}

// stateDigest hashes Store.HashState.
func stateDigest(s *Store) [sha256.Size]byte {
	h := sha256.New()
	s.HashState(h)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// undoOps applies an op stream decoded two bytes per op: the first
// picks the op (low two bits: put, put, get, delete) and the key, the
// second the value length in 5 B steps, so puts cross size classes
// from 64 B to 2 KiB. Results and traces are folded into d.
func undoOps(s *Store, keys [][]byte, ops []byte, d hash.Hash) {
	val := make([]byte, 255*5)
	var dst []byte
	var trace []Access
	for i := 0; i+1 < len(ops); i += 2 {
		key := keys[int(ops[i]>>2)%len(keys)]
		n := int(ops[i+1]) * 5
		switch ops[i] & 3 {
		case 0, 1:
			val[0] = byte(i)
			var err error
			trace, err = s.PutInto(trace[:0], key, val[:n])
			fmt.Fprintf(d, "P%s/%d/%v|", key, n, err)
		case 2:
			var ok bool
			dst, trace, ok = s.GetInto(dst[:0], trace[:0], key)
			fmt.Fprintf(d, "G%s/%t/%x|", key, ok, dst)
		default:
			var ok bool
			trace, ok = s.DeleteInto(trace[:0], key)
			fmt.Fprintf(d, "D%s/%t|", key, ok)
		}
		hashAccesses(d, trace)
	}
}

// checkRollback runs ops under a checkpoint, rolls back, and requires
// the fixture's state back; then it runs ops again on the rolled-back
// store and on a fresh fixture, which must return the same results
// and traces and end in the same state.
func checkRollback(t *testing.T, ops []byte) {
	t.Helper()
	s, keys := undoFixture()
	want := stateDigest(s)
	s.Checkpoint()
	undoOps(s, keys, ops, sha256.New())
	s.Rollback()
	if got := stateDigest(s); got != want {
		t.Fatalf("state after rollback differs from the checkpoint's (ops %x)", ops)
	}
	if n := s.JournalLen(); n != 0 {
		t.Fatalf("journal holds %d records after rollback", n)
	}
	fresh, _ := undoFixture()
	dRolled, dFresh := sha256.New(), sha256.New()
	undoOps(s, keys, ops, dRolled)
	undoOps(fresh, keys, ops, dFresh)
	if !bytes.Equal(dRolled.Sum(nil), dFresh.Sum(nil)) {
		t.Fatalf("rolled-back store serves ops differently from a fresh one (ops %x)", ops)
	}
	if stateDigest(s) != stateDigest(fresh) {
		t.Fatalf("rolled-back store ends in a different state from a fresh one (ops %x)", ops)
	}
}

// undoStream is a seeded op stream over the whole key universe.
func undoStream(seed uint64, n int) []byte {
	rng := splitmix64(seed)
	ops := make([]byte, 2*n)
	for i := range ops {
		ops[i] = byte(rng.next())
	}
	return ops
}

func TestRollbackRestoresCheckpoint(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		checkRollback(t, undoStream(seed, 400))
	}
}

// TestRollbackCoversEveryWriteSite checks that the seeded streams reach
// what rollback must undo: size-class reallocations, chain growth, and
// deletes whose blocks feed the free lists and are reused.
func TestRollbackCoversEveryWriteSite(t *testing.T) {
	s, keys := undoFixture()
	s.Checkpoint()
	before := s.Stats()
	undoOps(s, keys, undoStream(1, 400), sha256.New())
	st := s.Stats()
	reused := false
	for _, list := range s.slab.free {
		reused = reused || cap(list) > len(list)
	}
	if st.ChainedBuckets == before.ChainedBuckets || st.Deletes == 0 || !reused {
		t.Fatalf("stream too gentle: %+v (reused free blocks: %t)", st, reused)
	}
}

func TestRollbackAfterReadsJournalsNothing(t *testing.T) {
	s, keys := undoFixture()
	want := stateDigest(s)
	s.Checkpoint()
	var dst []byte
	var pairs []ScanPair
	var trace []Access
	for i, k := range keys {
		dst, trace, _ = s.GetInto(dst[:0], trace[:0], k)
		dst, pairs, trace = s.ScanInto(dst[:0], pairs[:0], trace[:0], k, 1+i%8, i%2 == 0)
		trace, _ = s.DeleteInto(trace[:0], []byte("absent"))
	}
	if n := s.JournalLen(); n != 0 {
		t.Fatalf("reads and missed deletes journaled %d writes", n)
	}
	s.Rollback()
	if stateDigest(s) != want {
		t.Fatal("rollback after reads changed the state")
	}
}

func TestRollbackWithoutCheckpointPanics(t *testing.T) {
	s, _ := undoFixture()
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback without a checkpoint did not panic")
		}
	}()
	s.Rollback()
}

// TestCheckpointMovesTheMark checks that a second Checkpoint makes the
// current state the one Rollback returns to.
func TestCheckpointMovesTheMark(t *testing.T) {
	s, keys := undoFixture()
	s.Checkpoint()
	undoOps(s, keys, undoStream(3, 100), sha256.New())
	want := stateDigest(s)
	s.Checkpoint()
	undoOps(s, keys, undoStream(4, 100), sha256.New())
	s.Rollback()
	if stateDigest(s) != want {
		t.Fatal("rollback did not return to the latest checkpoint")
	}
}

func TestCheckpointRollbackZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	s, keys := undoFixture()
	s.Checkpoint()
	ops := undoStream(5, 200)
	val := make([]byte, 255*5)
	var trace []Access
	round := func() {
		for i := 0; i+1 < len(ops); i += 2 {
			key := keys[int(ops[i]>>2)%len(keys)]
			if ops[i]&3 == 3 {
				trace, _ = s.DeleteInto(trace[:0], key)
				continue
			}
			trace, _ = s.PutInto(trace[:0], key, val[:int(ops[i+1])*5])
		}
		s.Rollback()
	}
	round() // grow the journal and the free lists once
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("checkpointed writes plus rollback: %.2f allocs per round, want 0", n)
	}
}

// FuzzCheckpointRollback runs fuzz-chosen Put/Delete/Get streams under
// a checkpoint: rollback must restore the checkpoint's exact state, and
// the rolled-back store must then serve any stream exactly as a fresh
// one does.
func FuzzCheckpointRollback(f *testing.F) {
	f.Add([]byte{})
	f.Add(undoStream(1, 64))
	f.Add([]byte{0xFC, 0xFF, 0xF8, 0x01, 0xFF, 0x00}) // grow, then delete, a new key
	f.Add(bytes.Repeat([]byte{0x00, 0x80, 0x04, 0x01}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		checkRollback(t, ops)
	})
}
