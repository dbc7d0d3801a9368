package accel

import (
	"testing"

	"rambda/internal/coherence"
	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

type fixture struct {
	space *memspace.Space
	coh   *coherence.Domain
	host  *memdev.System
	link  *interconnect.CCLink
	dram  *memspace.Region
	local *memspace.Region
}

func newFixture(withLocal bool) (*fixture, *Accel) {
	f := &fixture{
		space: memspace.New(),
		coh:   coherence.NewDomain(),
		link:  interconnect.NewCCLink("upi", 20.8e9, 100*sim.Nanosecond),
	}
	f.dram = f.space.Alloc("dram", 1<<20, memspace.KindDRAM)
	f.host = &memdev.System{
		Space: f.space,
		DRAM:  memdev.NewDRAM("dram", 6, 120e9, 90*sim.Nanosecond),
		LLC:   memdev.NewLLC("llc", 300e9, 20*sim.Nanosecond),
	}
	var local *memdev.LocalMem
	if withLocal {
		f.local = f.space.Alloc("accel-local", 1<<20, memspace.KindAccelLocal)
		local = memdev.NewLocalMem("ld", 2, 36e9, 120*sim.Nanosecond, 10*sim.Nanosecond)
	}
	a := New(DefaultConfig("acc"), f.link, f.host, f.space, f.coh, local)
	return f, a
}

func TestReadDataCrossesCCLink(t *testing.T) {
	f, a := newFixture(false)
	done := a.ReadData(0, f.dram.Base, 64)
	// Must include cc-link hop (100ns) + DRAM latency (90ns) at least.
	if done < 190*sim.Nanosecond {
		t.Fatalf("host read done=%v, must cross UPI + DRAM", done)
	}
	if f.link.Resource().Ops() == 0 {
		t.Fatal("cc-link not charged")
	}
}

func TestLocalMemoryBypassesCCLink(t *testing.T) {
	f, a := newFixture(true)
	if !a.HasLocalMemory() {
		t.Fatal("variant flag")
	}
	before := f.link.Resource().Ops()
	a.ReadData(0, f.local.Base, 64)
	// Only TLB-warming traffic may touch the link; data must not.
	a.ReadData(0, f.local.Base, 64) // warm TLB second access
	after := f.link.Resource().Ops()
	if after != before {
		// First access performs a page walk through host memory; data
		// reads themselves must be local. Verify by byte accounting.
		t.Logf("link ops %d -> %d (page walk)", before, after)
	}
	start := f.link.Resource().Bytes()
	a.ReadData(sim.Second, f.local.Base, 4096)
	if f.link.Resource().Bytes() != start {
		t.Fatal("local data read leaked onto the cc-link")
	}
}

func TestWriteDataIsFunctionalAndCoherent(t *testing.T) {
	f, a := newFixture(false)
	signals := 0
	f.coh.SetSnooper(coherence.AgentCPU, func(coherence.Signal) { signals++ })
	f.coh.Pin(coherence.AgentCPU, memspace.Range{Base: f.dram.Base, Size: 64})

	a.WriteData(0, f.dram.Base, []byte("from apu"))
	got := make([]byte, 8)
	f.space.Read(f.dram.Base, got)
	if string(got) != "from apu" {
		t.Fatalf("memory=%q", got)
	}
	if signals != 1 {
		t.Fatal("accelerator store must raise a coherence signal for CPU-pinned lines")
	}
}

func TestFetchPinnedIsCacheHit(t *testing.T) {
	f, a := newFixture(false)
	r := memspace.Range{Base: f.dram.Base, Size: 4096}
	a.Pin(r)
	// Owned pinned line: one cycle + issue, no cc-link traffic.
	before := f.link.Resource().Ops()
	done := a.Fetch(0, f.dram.Base, 64)
	if f.link.Resource().Ops() != before {
		t.Fatal("pinned fetch must not cross the cc-link")
	}
	if done > 50*sim.Nanosecond {
		t.Fatalf("pinned fetch=%v, want a few fabric cycles", done)
	}
	// After invalidation the fetch must go to the host.
	f.coh.Write(coherence.AgentNIC, f.dram.Base, 64, 0)
	done = a.Fetch(done, f.dram.Base, 64)
	if f.link.Resource().Ops() == before {
		t.Fatal("invalidated fetch must cross the cc-link")
	}
	if done < 190*sim.Nanosecond {
		t.Fatalf("invalidated fetch=%v too fast", done)
	}
}

func TestPinCapacityEnforced(t *testing.T) {
	f, a := newFixture(false)
	a.Pin(memspace.Range{Base: f.dram.Base, Size: 32 << 10})
	defer func() {
		if recover() == nil {
			t.Fatal("pinning beyond the 64KB local cache must panic")
		}
	}()
	a.Pin(memspace.Range{Base: f.dram.Base + 32<<10, Size: 33 << 10})
}

func TestIssueSerialization(t *testing.T) {
	// The controller issues serially: K concurrent reads finish no
	// faster than K * IssueCycles of pipeline occupancy.
	f, a := newFixture(false)
	var last sim.Time
	const k = 100
	for i := 0; i < k; i++ {
		done := a.ReadData(0, f.dram.Base+memspace.Addr(i*64), 64)
		if done > last {
			last = done
		}
	}
	minIssue := sim.Duration(k*a.Config().IssueCycles) * a.CycleTime()
	if last < minIssue {
		t.Fatalf("100 reads done at %v, serial issue floor is %v", last, minIssue)
	}
	// But far less than k * full-memory-latency: MLP must overlap.
	serialMemory := sim.Duration(k) * 190 * sim.Nanosecond
	if last >= serialMemory {
		t.Fatalf("reads did not overlap: %v >= %v", last, serialMemory)
	}
}

func TestComputePool(t *testing.T) {
	_, a := newFixture(false)
	// 400 cycles at 400MHz = 1us on one FU; 4 FUs run 4 ops in parallel.
	var done sim.Time
	for i := 0; i < 4; i++ {
		done = a.Compute(0, 400)
	}
	if done != sim.Microsecond {
		t.Fatalf("parallel compute done=%v, want 1us", done)
	}
	done = a.Compute(0, 400) // fifth op queues
	if done != 2*sim.Microsecond {
		t.Fatalf("queued compute done=%v, want 2us", done)
	}
	if a.Compute(done, 0) != done {
		t.Fatal("zero-cycle compute must be free")
	}
}

func TestTLBWarmup(t *testing.T) {
	f, a := newFixture(false)
	a.ReadData(0, f.dram.Base, 64)
	h0, m0 := a.TLBStats()
	if m0 != 1 || h0 != 0 {
		t.Fatalf("cold access: hits=%d misses=%d", h0, m0)
	}
	a.ReadData(0, f.dram.Base+128, 64) // same 2MB page
	h1, m1 := a.TLBStats()
	if h1 != 1 || m1 != 1 {
		t.Fatalf("warm access: hits=%d misses=%d", h1, m1)
	}
}

func TestBadConfigPanics(t *testing.T) {
	f, _ := newFixture(false)
	cfg := DefaultConfig("bad")
	cfg.ClockHz = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(cfg, f.link, f.host, f.space, f.coh, nil)
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(2, 1<<20)
	tlb.Lookup(0)
	tlb.Insert(0)
	tlb.Lookup(1 << 20)
	tlb.Insert(1 << 20)
	// Touch page 0 so page 1 is LRU.
	if !tlb.Lookup(100) {
		t.Fatal("page 0 should hit")
	}
	tlb.Lookup(2 << 20)
	tlb.Insert(2 << 20)
	if tlb.Resident() != 2 {
		t.Fatalf("resident=%d", tlb.Resident())
	}
	if tlb.Lookup(1 << 20) {
		t.Fatal("LRU page should have been evicted")
	}
	if !tlb.Lookup(100) {
		t.Fatal("MRU page must survive")
	}
}
