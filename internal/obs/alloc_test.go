package obs

import "testing"

// Steady-state allocation guard for the recording hot path: once a
// trace's span and stack slices have grown to the workload's
// high-water mark, Push/Pop/Span and registry ticks must not
// allocate. This is what lets the instrumented request path keep the
// PR 4 zero-allocation invariant with a collector attached.

func TestRecordingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	tr := NewTrace()
	reg := NewRegistry()
	cycle := func() {
		tr.Reset()
		req := tr.Push("req", StageRing, 0)
		nic := tr.Push("nic", StageNIC, 10)
		tr.Span("wire", StageWire, 20, 30)
		tr.Pop(nic, 40)
		tr.Span("mem", StageMemory, 50, 60)
		tr.Pop(req, 100)
		reg.Tick(100)
	}
	for i := 0; i < 16; i++ {
		cycle() // grow span/stack backing to the high-water mark
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("record cycle: %.2f allocs/op in steady state, want 0", n)
	}
}
