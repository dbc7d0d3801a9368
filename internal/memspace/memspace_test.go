package memspace

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAllocAndLookup(t *testing.T) {
	s := New()
	a := s.Alloc("a", 100, KindDRAM)
	b := s.Alloc("b", 4096, KindNVM)
	if a.Size != 128 { // rounded to 64B
		t.Fatalf("size=%d, want 128", a.Size)
	}
	if a.Base == 0 {
		t.Fatal("base must not be the null page")
	}
	if b.Base != a.End() {
		t.Fatalf("regions must be contiguous: %#x vs %#x", b.Base, a.End())
	}
	if got := s.Region(a.Base + 5); got != a {
		t.Fatal("lookup inside a failed")
	}
	if got := s.Region(b.Base); got != b {
		t.Fatal("lookup at base of b failed")
	}
	if got := s.Region(0); got != nil {
		t.Fatal("null page must be unmapped")
	}
	if got := s.Region(b.End()); got != nil {
		t.Fatal("past-the-end must be unmapped")
	}
	if s.KindOf(b.Base+10) != KindNVM {
		t.Fatal("KindOf wrong")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := New()
	r := s.Alloc("buf", 256, KindDRAM)
	msg := []byte("hello rambda")
	s.Write(r.Base+32, msg)
	got := make([]byte, len(msg))
	s.Read(r.Base+32, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip got %q", got)
	}
	// Slice aliases live storage.
	sl := s.Slice(r.Base+32, len(msg))
	sl[0] = 'H'
	s.Read(r.Base+32, got)
	if got[0] != 'H' {
		t.Fatal("Slice must alias backing storage")
	}
}

func TestAccessPanics(t *testing.T) {
	s := New()
	r := s.Alloc("x", 64, KindDRAM)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unmapped read", func() { s.Read(0, make([]byte, 1)) })
	mustPanic("cross-end read", func() { s.Read(r.Base+60, make([]byte, 10)) })
	mustPanic("zero alloc", func() { s.Alloc("z", 0, KindDRAM) })
	mustPanic("KindOf unmapped", func() { s.KindOf(1) })
}

func TestRange(t *testing.T) {
	r := Range{Base: 100, Size: 50}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Fatal("Contains broken")
	}
	if !r.Overlaps(Range{Base: 140, Size: 20}) {
		t.Fatal("overlap missed")
	}
	if r.Overlaps(Range{Base: 150, Size: 20}) {
		t.Fatal("false overlap")
	}
	if r.Overlaps(Range{Base: 50, Size: 50}) {
		t.Fatal("false overlap before")
	}
}

func TestKindString(t *testing.T) {
	if KindDRAM.String() != "dram" || KindNVM.String() != "nvm" ||
		KindAccelLocal.String() != "accel-local" {
		t.Fatal("kind names")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestPropertyRegionsDisjointAndFindable(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := New()
		var regs []*Region
		for i, sz := range sizes {
			if len(regs) > 64 {
				break
			}
			size := uint64(sz%4096) + 1
			regs = append(regs, s.Alloc("r", size, Kind(i%3)))
		}
		for i, r := range regs {
			// Every region must be findable at its base and last byte.
			if s.Region(r.Base) != r || s.Region(r.End()-1) != r {
				return false
			}
			// And disjoint from all others.
			for j, o := range regs {
				if i != j && r.Overlaps(o.Range) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTotalAllocated(t *testing.T) {
	s := New()
	s.Alloc("a", 64, KindDRAM)
	s.Alloc("b", 128, KindNVM)
	if s.TotalAllocated() != 192 {
		t.Fatalf("total=%d", s.TotalAllocated())
	}
	if len(s.Regions()) != 2 {
		t.Fatal("Regions() wrong length")
	}
}

func TestAllocPhantom(t *testing.T) {
	s := New()
	s.Alloc("pre", 64, KindNVM)
	ph := s.AllocPhantom("dma-buf", 1<<20, KindDRAM)
	post := s.Alloc("post", 64, KindDRAM)

	if !ph.Phantom() || ph.Bytes() != nil {
		t.Fatal("phantom region reports backing storage")
	}
	// Address-space behaviour is indistinguishable from a backed region:
	// kind steering and neighbour layout see the same map.
	if got := s.KindOf(ph.Base + 12345); got != KindDRAM {
		t.Fatalf("KindOf inside phantom = %v", got)
	}
	if s.Region(ph.End()-1) != ph {
		t.Fatal("Region lookup missed the phantom")
	}
	if post.Base != ph.End() {
		t.Fatalf("phantom did not reserve address space: post at %#x, want %#x", post.Base, ph.End())
	}
	// Byte access is a programming error, not a silent zero read.
	defer func() {
		if recover() == nil {
			t.Fatal("Slice into a phantom region did not panic")
		}
	}()
	s.Slice(ph.Base, 8)
}

func TestAdoptSharesBytesAndKeepsLayout(t *testing.T) {
	home := New()
	idx := home.Alloc("idx", 100, KindDRAM)
	pool := home.Alloc("pool", 4096, KindDRAM)

	s := New()
	ai := s.Adopt(idx, KindAccelLocal)
	ap := s.Adopt(pool, KindAccelLocal)
	if ai.Range != idx.Range || ap.Range != pool.Range || ai.Name != "idx" {
		t.Fatalf("adopted ranges moved: %+v %+v", ai, ap)
	}
	if next := s.Alloc("next", 64, KindDRAM); next.Base != pool.End() {
		t.Fatalf("allocation after adopt at %#x, want %#x", next.Base, pool.End())
	}
	if s.Region(pool.Base+7) != ap || s.Region(idx.End()-1) != ai {
		t.Fatal("Region lookup missed an adopted region")
	}
	if s.KindOf(pool.Base) != KindAccelLocal || home.KindOf(pool.Base) != KindDRAM {
		t.Fatal("adopt must set the kind of the new mapping only")
	}
	// One backing array: writes show through both mappings.
	s.Write(pool.Base+8, []byte("shared"))
	if got := home.Slice(pool.Base+8, 6); string(got) != "shared" {
		t.Fatalf("home mapping reads %q", got)
	}
	home.Slice(idx.Base, 1)[0] = 'x'
	if s.Slice(idx.Base, 1)[0] != 'x' {
		t.Fatal("adopted mapping missed a write through the home mapping")
	}
	if s.TotalAllocated() != home.TotalAllocated()+64 {
		t.Fatalf("TotalAllocated %d, want %d", s.TotalAllocated(), home.TotalAllocated()+64)
	}
}

func TestAdoptAwayFromBumpPointerPanics(t *testing.T) {
	home := New()
	home.Alloc("first", 64, KindDRAM)
	second := home.Alloc("second", 64, KindDRAM)
	for name, s := range map[string]*Space{
		"below": New(),
		"above": func() *Space { s := New(); s.Alloc("big", 4096, KindDRAM); return s }(),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: adopt at %#x did not panic", name, second.Base)
				}
			}()
			s.Adopt(second, KindDRAM)
		}()
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestAllocPrefixBacksOnlyThePrefix(t *testing.T) {
	s := New()
	r := s.AllocPrefix("run", 1<<20, 100, KindNVM)
	post := s.Alloc("post", 64, KindDRAM)
	if r.Size != 1<<20 || len(r.Bytes()) != 128 || r.Phantom() {
		t.Fatalf("reserved %d, backed %d; want %d and 128", r.Size, len(r.Bytes()), 1<<20)
	}
	if post.Base != r.End() {
		t.Fatalf("next region at %#x, want %#x: the whole reservation must move the bump pointer", post.Base, r.End())
	}
	// Lookups see the whole reservation.
	if s.Region(r.End()-1) != r || s.KindOf(r.Base+4096) != KindNVM {
		t.Fatal("lookup missed the unbacked tail of the reservation")
	}
	s.Write(r.Base+120, []byte("tail"))
	if got := r.Slice(r.Base+120, 4); string(got) != "tail" {
		t.Fatalf("prefix reads %q", got)
	}
	mustPanic(t, "Slice across the prefix end", func() { s.Slice(r.Base+126, 4) })
	mustPanic(t, "Slice in the unbacked tail", func() { s.Slice(r.Base+4096, 8) })
	mustPanic(t, "Region.Slice below the base", func() { r.Slice(r.Base-1, 2) })
	if got := s.AllocPrefix("big", 64, 1<<10, KindDRAM); len(got.Bytes()) != 64 {
		t.Fatalf("backed %d bytes of a 64 B region", len(got.Bytes()))
	}
}

func TestFreeUnmapsWithoutReusingAddresses(t *testing.T) {
	// ref allocates the same sequence without the free: every later
	// address must match it.
	ref, s := New(), New()
	for _, sp := range []*Space{ref, s} {
		sp.Alloc("a", 64, KindDRAM)
	}
	ref.Alloc("b", 4096, KindNVM)
	b := s.AllocPrefix("b", 4096, 64, KindNVM)
	ref.Alloc("c", 64, KindDRAM)
	c := s.Alloc("c", 64, KindDRAM)

	s.Free(b)
	if s.Region(b.Base) != nil || s.Region(b.End()-1) != nil {
		t.Fatal("freed region still found")
	}
	if len(s.Regions()) != 2 || s.TotalAllocated() != 128 {
		t.Fatalf("after free: %d regions, %d B reserved; want 2 and 128", len(s.Regions()), s.TotalAllocated())
	}
	if b.Bytes() != nil {
		t.Fatal("freed mapping kept its bytes")
	}
	mustPanic(t, "KindOf a freed address", func() { s.KindOf(b.Base) })
	mustPanic(t, "Slice of a freed address", func() { s.Slice(b.Base, 8) })
	mustPanic(t, "Region.Slice of a freed region", func() { b.Slice(b.Base, 8) })
	mustPanic(t, "double Free", func() { s.Free(b) })
	if s.Region(c.Base) != c {
		t.Fatal("a neighbour of the freed region was lost")
	}
	if got, want := s.Alloc("d", 64, KindDRAM).Base, ref.Alloc("d", 64, KindDRAM).Base; got != want {
		t.Fatalf("allocation after free at %#x, want %#x", got, want)
	}
}

func TestFreeAdoptedMappingKeepsHomeBytes(t *testing.T) {
	home := New()
	pool := home.Alloc("pool", 4096, KindDRAM)
	home.Write(pool.Base, []byte("pooled"))

	s := New()
	ap := s.Adopt(pool, KindAccelLocal)
	s.Free(ap)
	if s.Region(pool.Base) != nil {
		t.Fatal("freed adopted mapping still found")
	}
	if got := home.Slice(pool.Base, 6); string(got) != "pooled" {
		t.Fatalf("home mapping reads %q after the adopted mapping was freed", got)
	}
	if len(pool.Bytes()) != 4096 || home.Region(pool.Base) != pool {
		t.Fatal("freeing an adopted mapping touched the home mapping")
	}
	mustPanic(t, "Free of a region mapped elsewhere", func() { s.Free(pool) })
}
