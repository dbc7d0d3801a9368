package cpoll

import (
	"testing"

	"rambda/internal/coherence"
	"rambda/internal/memspace"
	"rambda/internal/ringbuf"
	"rambda/internal/sim"
)

// fixture builds n contiguous request rings plus (optionally) a pointer
// buffer in a fresh space.
type fixture struct {
	space  *memspace.Space
	domain *coherence.Domain
	rings  []*ringbuf.Ring
	pb     *ringbuf.PointerBuffer
	fetch  FetchFunc
	fetsum int // bytes fetched, to observe polling traffic
}

func newFixture(t *testing.T, nrings, entries int, withPB bool) *fixture {
	t.Helper()
	f := &fixture{space: memspace.New(), domain: coherence.NewDomain()}
	const entrySize = 64
	all := f.space.Alloc("rings", uint64(nrings*entries*entrySize), memspace.KindDRAM)
	for i := 0; i < nrings; i++ {
		r := memspace.Range{
			Base: all.Base + memspace.Addr(i*entries*entrySize),
			Size: uint64(entries * entrySize),
		}
		f.rings = append(f.rings, ringbuf.NewRing(f.space, ringbuf.NewLayout(r, entries)))
	}
	if withPB {
		preg := f.space.Alloc("pb", uint64(nrings*ringbuf.PtrEntryBytes), memspace.KindDRAM)
		f.pb = ringbuf.NewPointerBuffer(f.space, preg.Range, nrings)
	}
	f.fetch = func(now sim.Time, _ memspace.Addr, bytes int) sim.Time {
		f.fetsum += bytes
		return now + 100*sim.Nanosecond
	}
	return f
}

// writeRequest simulates a producer writing message m to ring i (and
// bumping the pointer slot when pb is set), going through the coherence
// domain like a real DMA/store.
func (f *fixture) writeRequest(ringIdx int, seq *[]uint32, payload string) {
	r := f.rings[ringIdx]
	pos := int((*seq)[ringIdx]) % r.NumEntries
	entry := r.Encode([]byte(payload))
	f.space.Write(r.EntryAddr(pos), entry)
	f.domain.Write(coherence.AgentNIC, r.EntryAddr(pos), len(entry), 0)
	(*seq)[ringIdx]++
	if f.pb != nil {
		val := (*seq)[ringIdx]
		buf := f.space.Slice(f.pb.Addr(ringIdx), 4)
		buf[0], buf[1], buf[2], buf[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
		f.domain.Write(coherence.AgentNIC, f.pb.Addr(ringIdx), 4, 0)
	}
}

func TestDirectModeSignalAndHarvest(t *testing.T) {
	f := newFixture(t, 2, 8, false)
	c := NewDirect(f.domain, coherence.AgentAccel, f.rings, 64<<10)
	seq := make([]uint32, 2)

	f.writeRequest(1, &seq, "req-a")
	if c.PendingRings() != 1 {
		t.Fatalf("pending=%d", c.PendingRings())
	}
	idx, ok := c.NextDirty()
	if !ok || idx != 1 {
		t.Fatalf("NextDirty=%d ok=%v, want ring 1", idx, ok)
	}
	n, at := c.Harvest(0, idx, f.fetch)
	if n != 1 {
		t.Fatalf("harvested=%d", n)
	}
	if at <= 0 {
		t.Fatal("harvest must charge fetches")
	}
	if _, ok := c.NextDirty(); ok {
		t.Fatal("queue must be empty after harvest")
	}
}

func TestDirectModeCoalescedSignalsYieldAllRequests(t *testing.T) {
	f := newFixture(t, 1, 8, false)
	c := NewDirect(f.domain, coherence.AgentAccel, f.rings, 64<<10)
	seq := make([]uint32, 1)
	// Three messages land before the accelerator harvests; signals to
	// already-invalid lines coalesce, but the tail tracking must find
	// all three.
	f.writeRequest(0, &seq, "m0")
	f.writeRequest(0, &seq, "m1")
	f.writeRequest(0, &seq, "m2")
	idx, ok := c.NextDirty()
	if !ok {
		t.Fatal("no dirty ring")
	}
	n, _ := c.Harvest(0, idx, f.fetch)
	if n != 3 {
		t.Fatalf("harvested=%d, want 3 despite coalescing", n)
	}
	if c.Harvested() != 3 {
		t.Fatalf("total harvested=%d", c.Harvested())
	}
}

func TestDirectModeReSignalsAfterHarvest(t *testing.T) {
	f := newFixture(t, 1, 8, false)
	c := NewDirect(f.domain, coherence.AgentAccel, f.rings, 64<<10)
	seq := make([]uint32, 1)
	f.writeRequest(0, &seq, "m0")
	idx, _ := c.NextDirty()
	c.Harvest(0, idx, f.fetch)
	before := c.Signals()
	f.writeRequest(0, &seq, "m1")
	if c.Signals() != before+1 {
		t.Fatal("write after harvest must signal again (lines reacquired)")
	}
	idx, ok := c.NextDirty()
	if !ok {
		t.Fatal("second message not queued")
	}
	if n, _ := c.Harvest(0, idx, f.fetch); n != 1 {
		t.Fatalf("harvested=%d", n)
	}
}

func TestDirectModeCacheCapacityEnforced(t *testing.T) {
	f := newFixture(t, 4, 8, false)
	defer func() {
		if recover() == nil {
			t.Fatal("region larger than local cache must panic (paper's scalability limit)")
		}
	}()
	NewDirect(f.domain, coherence.AgentAccel, f.rings, 512) // 4*8*64 = 2048 > 512
}

func TestDirectModeRequiresContiguousRings(t *testing.T) {
	f := newFixture(t, 1, 8, false)
	other := f.space.Alloc("gap", 64, memspace.KindDRAM)
	_ = other
	lone := f.space.Alloc("ring2", 512, memspace.KindDRAM)
	r2 := ringbuf.NewRing(f.space, ringbuf.NewLayout(lone.Range, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("non-contiguous rings must panic in direct mode")
		}
	}()
	NewDirect(f.domain, coherence.AgentAccel, []*ringbuf.Ring{f.rings[0], r2}, 64<<10)
}

func TestPointerModeHarvestDelta(t *testing.T) {
	f := newFixture(t, 3, 8, true)
	c := NewPointer(f.domain, coherence.AgentAccel, f.pb, f.rings)
	if c.Mode() != PointerBuffer || c.Region() != f.pb.Range() {
		t.Fatal("checker must register the pointer buffer as the cpoll region")
	}
	seq := make([]uint32, 3)
	f.writeRequest(2, &seq, "a")
	f.writeRequest(2, &seq, "b")
	f.writeRequest(0, &seq, "c")

	harvests := 0
	for {
		idx, ok := c.NextDirty()
		if !ok {
			break
		}
		c.Harvest(0, idx, f.fetch)
		harvests++
	}
	// All three slots share one cacheline: the first harvest fetches the
	// line once and resolves every ring's delta; the remaining queue
	// entries are already clean.
	if harvests != 1 {
		t.Fatalf("harvests=%d, want 1 (one line fetch resolves the line)", harvests)
	}
	if c.Harvested() != 3 {
		t.Fatalf("harvested=%d, want all 3 requests", c.Harvested())
	}
	if f.fetsum != coherence.LineSize {
		t.Fatalf("fetched %d bytes, want one %d B line", f.fetsum, coherence.LineSize)
	}
}

func TestPointerModeCompactRegion(t *testing.T) {
	f := newFixture(t, 3, 8, true)
	c := NewPointer(f.domain, coherence.AgentAccel, f.pb, f.rings)
	// The pinned region is the pointer buffer: 3 slots of 4B -> one line.
	if c.Region().Size >= f.rings[0].Range.Size {
		t.Fatal("pointer-buffer region must be far smaller than the rings")
	}
	if f.domain.PinnedLines() != 1 {
		t.Fatalf("pinned lines=%d, want 1", f.domain.PinnedLines())
	}
}

func TestPointerModeSlotLimit(t *testing.T) {
	f := newFixture(t, 2, 8, false)
	preg := f.space.Alloc("pb", 4, memspace.KindDRAM)
	pb := ringbuf.NewPointerBuffer(f.space, memspace.Range{Base: preg.Base, Size: 4}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("more rings than slots must panic")
		}
	}()
	NewPointer(f.domain, coherence.AgentAccel, pb, f.rings)
}

func TestSchedulerFIFOFairness(t *testing.T) {
	// Direct mode: each ring occupies its own cachelines, so signal
	// order is the arrival order and the scheduler serves FIFO.
	f := newFixture(t, 4, 8, false)
	c := NewDirect(f.domain, coherence.AgentAccel, f.rings, 64<<10)
	seq := make([]uint32, 4)
	f.writeRequest(3, &seq, "x")
	f.writeRequest(1, &seq, "y")
	f.writeRequest(2, &seq, "z")
	var order []int
	for {
		idx, ok := c.NextDirty()
		if !ok {
			break
		}
		c.Harvest(0, idx, f.fetch)
		order = append(order, idx)
	}
	if len(order) != 3 || order[0] != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("scheduler order=%v, want [3 1 2]", order)
	}
}

func TestPointerModeFalseSharingResolvedByDelta(t *testing.T) {
	// A write to one slot marks every ring sharing the line dirty;
	// zero-delta harvests keep correctness (no phantom requests).
	f := newFixture(t, 8, 8, true)
	c := NewPointer(f.domain, coherence.AgentAccel, f.pb, f.rings)
	seq := make([]uint32, 8)
	f.writeRequest(5, &seq, "only")
	for {
		idx, ok := c.NextDirty()
		if !ok {
			break
		}
		c.Harvest(0, idx, f.fetch)
	}
	if c.Harvested() != 1 {
		t.Fatalf("harvested=%d, want exactly 1 (no phantom requests)", c.Harvested())
	}
}

func TestCpollIdleCostIsZero(t *testing.T) {
	// The headline property: with no traffic, cpoll fetches nothing.
	f := newFixture(t, 8, 8, true)
	c := NewPointer(f.domain, coherence.AgentAccel, f.pb, f.rings)
	for i := 0; i < 100; i++ {
		if _, ok := c.NextDirty(); ok {
			t.Fatal("dirty ring with no traffic")
		}
	}
	if f.fetsum != 0 {
		t.Fatalf("cpoll fetched %d bytes while idle", f.fetsum)
	}
	if c.Signals() != 0 {
		t.Fatal("signals while idle")
	}
}

func TestModeString(t *testing.T) {
	if Direct.String() != "direct" || PointerBuffer.String() != "pointer-buffer" {
		t.Fatal("mode names")
	}
}
