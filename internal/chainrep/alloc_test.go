package chainrep

import (
	"fmt"
	"testing"

	"rambda/internal/sim"
)

// Steady-state allocation guard for the transaction path: once a
// TxScratch has grown to the workload's high-water mark, the paper's
// representative (4 reads, 2 writes) transaction must not allocate —
// reads land in the scratch's reused buffers and writes reuse each
// node's offset/log-entry scratch. This extends the kvs/rnic/ringbuf
// guards to the chain replication layer.
func TestRambdaTxScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	c := newChain(3)
	payload := []byte("sixty-four-byte-write-payload-for-the-steady-state-alloc-guard!!")
	tx := Tx{
		Reads: []ReadOp{{Offset: 0, Len: 64}, {Offset: 128, Len: 64},
			{Offset: 256, Len: 64}, {Offset: 384, Len: 64}},
		Writes: []Tuple{{Offset: 512, Data: payload}, {Offset: 640, Data: payload}},
	}
	sc := &TxScratch{}
	now := sim.Time(0)
	steady := func() {
		_, done, err := c.RambdaTxInto(now, tx, sc)
		if err != nil {
			panic(err)
		}
		now = done
	}
	for i := 0; i < 8; i++ { // grow sc and per-node scratch, warm the log
		steady()
	}
	if n := testing.AllocsPerRun(200, steady); n != 0 {
		t.Fatalf("RambdaTxInto: %.2f allocs/op in steady state, want 0", n)
	}
}

// The HyperLoop comparison path shares the same scratch discipline.
func TestHyperLoopTxScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	c := newChain(3)
	payload := []byte("sixty-four-byte-write-payload-for-the-steady-state-alloc-guard!!")
	tx := Tx{
		Reads:  []ReadOp{{Offset: 0, Len: 64}, {Offset: 128, Len: 64}},
		Writes: []Tuple{{Offset: 512, Data: payload}},
	}
	sc := &TxScratch{}
	now := sim.Time(0)
	steady := func() {
		_, done := c.HyperLoopTxInto(now, tx, sc)
		now = done
	}
	for i := 0; i < 8; i++ {
		steady()
	}
	if n := testing.AllocsPerRun(200, steady); n != 0 {
		t.Fatalf("HyperLoopTxInto: %.2f allocs/op in steady state, want 0", n)
	}
}

// Redo-log replay decodes each entry in place from the log region into
// the log's reused tuple buffer, and the flat store copies the data
// out: once the buffer has grown to the widest entry, a replay of a
// full, wrapped log allocates nothing.
func TestRedoLogReplayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	space, mem := newMem()
	store := NewStore(space, mem, 1<<16)
	log := NewRedoLog(space, mem, 32, EntrySize(4, 64))
	payload := make([]byte, 64)
	for i := 0; i < 50; i++ {
		tx := []Tuple{{Offset: uint32(i * 64), Data: payload}, {Offset: uint32(i*64 + 4096), Data: payload[:i%64]}}
		log.Append(0, EncodeEntry(tx[:1+i%2]))
	}
	replay := func() {
		if n, err := log.Replay(store); err != nil || n != 32 {
			panic(fmt.Sprintf("replayed %d: %v", n, err))
		}
	}
	replay()
	if n := testing.AllocsPerRun(50, replay); n != 0 {
		t.Fatalf("Replay: %.2f allocs per full-log replay, want 0", n)
	}
}
