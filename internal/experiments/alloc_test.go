package experiments

import (
	"encoding/binary"
	"testing"

	"rambda/internal/core"
	"rambda/internal/sim"
)

// TestWalkerAppZeroAlloc guards fig7's list walker: its response buffer
// belongs to the app and is rewritten per request, so once the
// accelerator's state has warmed up a walk allocates nothing.
func TestWalkerAppZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts distorted under -race")
	}
	list := buildLinkedList(1<<12, sim.NewRNG(1))
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelLD})
	m.Space.Adopt(list.region, m.DataKind())
	app := walkerApp(list)
	ctx := &core.AppCtx{M: m, A: m.Accel}
	req := make([]byte, 8)
	now := sim.Time(0)
	node := 0
	walk := func() {
		binary.LittleEndian.PutUint64(req, uint64(node))
		resp, done := app.Handle(ctx, now, req)
		if len(resp) != 8 {
			t.Fatalf("response of %d bytes, want 8", len(resp))
		}
		now, node = done, node+7919
	}
	for i := 0; i < 2000; i++ {
		walk()
	}
	if n := testing.AllocsPerRun(500, walk); n != 0 {
		t.Fatalf("walkerApp: %.2f allocs per walk, want 0", n)
	}
}
