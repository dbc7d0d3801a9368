package rnic

import (
	"testing"

	"rambda/internal/fault"
	"rambda/internal/sim"
)

// Steady-state allocation guard for the pooled RC write path: with the
// payload arena, the reusable per-QP result slice, and the ring CQ, a
// signaled write that is polled promptly must not allocate once the
// pools are warm.

func TestRCWriteHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	qa, la, ra := benchPair(fault.Plan{})
	now := sim.Time(0)
	write := func() {
		qa.PostSend(WQE{LocalAddr: la, RemoteAddr: ra, Len: 1024, Signaled: true})
		now = qa.Doorbell(now)[0].CQEAt
		if qa.CQ().Discard(1) != 1 {
			panic("missing CQE")
		}
	}
	for i := 0; i < 64; i++ {
		write() // warm the arena, rings, and result buffers
	}
	if n := testing.AllocsPerRun(200, write); n != 0 {
		t.Fatalf("pooled RC write: %.2f allocs/op in steady state, want 0", n)
	}
}
