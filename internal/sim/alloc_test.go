package sim

import "testing"

// TestAcquireZeroAllocSteadyState guards the placement hot path: once
// the gap lists have grown to the workload's high-water mark, Acquire
// must not allocate, across backfills that split gaps, evictions from a
// full table and the renumbering of record numbers.
func TestAcquireZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	r := NewResource("alloc", 6, 0, 25e9, 0)
	rng := NewRNG(31)
	now := Time(0)
	renumbers := 0
	steady := func() {
		for i := 0; i < 4*gapRecords; i++ {
			now += Duration(rng.Intn(int(20 * Nanosecond)))
			at := now
			if i%2 == 1 {
				at = max(0, now-16*Microsecond+Duration(rng.Intn(int(2*Microsecond))))
			}
			next := r.gaps.next
			r.Acquire(at, 64*(1+rng.Intn(4)))
			if r.gaps.next < next {
				renumbers++
			}
		}
	}
	for i := 0; i < 4; i++ {
		steady() // grow every list to its high-water mark
	}
	renumbers = 0
	// One run per measurement, so a single allocation is not averaged away.
	if n := testing.AllocsPerRun(1, steady); n != 0 {
		t.Fatalf("Acquire: %v allocations over %d ops in steady state, want 0", n, 4*gapRecords)
	}
	if r.gaps.live != maxGaps || renumbers < 4 {
		t.Fatalf("steady state not reached: %d live gaps, %d renumbers in the measured runs", r.gaps.live, renumbers)
	}
}
