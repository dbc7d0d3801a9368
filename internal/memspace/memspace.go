// Package memspace implements the unified physical address space shared
// by the CPU, the RNIC, and the cc-accelerator in a RAMBDA machine
// (paper Sec. III: "a unified memory subsystem with both CPU-attached
// and accelerator-attached physical memory ... in the same address
// space and coherence domain").
//
// Regions carry real backing storage: the simulated RDMA verbs, ring
// buffers, KVS, transaction log, and DLRM tables all move actual bytes
// through this space, so functional correctness is testable
// independently of the timing model. A region backs only as many bytes
// as it holds, and Free unmaps it; addresses are never reused, so
// freeing changes no later address and no modeled number.
package memspace

import (
	"fmt"
	"sort"
)

// Addr is a physical address in the unified space.
type Addr uint64

// Kind classifies the device backing a region; the adaptive-DDIO logic
// (paper Sec. III-D) steers I/O by region kind.
type Kind int

const (
	// KindDRAM is CPU-attached DRAM.
	KindDRAM Kind = iota
	// KindNVM is CPU-attached non-volatile memory (Optane-like).
	KindNVM
	// KindAccelLocal is accelerator-attached memory (the RAMBDA-LD/LH
	// future-platform projection).
	KindAccelLocal
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDRAM:
		return "dram"
	case KindNVM:
		return "nvm"
	case KindAccelLocal:
		return "accel-local"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Range is a half-open address interval [Base, Base+Size).
type Range struct {
	Base Addr
	Size uint64
}

// Contains reports whether addr falls inside the range.
func (r Range) Contains(addr Addr) bool {
	return addr >= r.Base && addr < r.Base+Addr(r.Size)
}

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool {
	return r.Base < o.Base+Addr(o.Size) && o.Base < r.Base+Addr(r.Size)
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Base + Addr(r.Size) }

// Region is an allocated interval of the address space. Its Range is
// the reserved address span every lookup sees; only a prefix of it may
// be backed by real bytes (the whole span for Alloc, none for
// AllocPhantom).
type Region struct {
	Name string
	Kind Kind
	Range
	data []byte // the backed prefix
}

// Bytes exposes the region's backed prefix.
func (r *Region) Bytes() []byte { return r.data }

// Phantom reports whether the region is timing-only (no backing
// storage).
func (r *Region) Phantom() bool { return r.data == nil }

// Slice returns the backing bytes for [addr, addr+size) inside the
// region's backed prefix. A span outside the prefix, one that reaches
// into the reserved but unbacked tail or into a phantom or freed
// region included, panics.
func (r *Region) Slice(addr Addr, size int) []byte {
	off, n := uint64(addr-r.Base), uint64(len(r.data))
	if off > n || uint64(size) > n-off {
		panic(&sliceError{r, addr, size})
	}
	return r.data[off : off+uint64(size)]
}

// sliceError is the panic value of an out-of-prefix Slice. It formats
// its diagnosis only when printed, which keeps Slice small enough to
// inline.
type sliceError struct {
	r    *Region
	addr Addr
	size int
}

func (e *sliceError) Error() string {
	r := e.r
	if !r.Contains(e.addr) || uint64(e.addr-r.Base)+uint64(e.size) > r.Size {
		return fmt.Sprintf("memspace: [%#x,+%d) outside region %q [%#x,+%d)",
			e.addr, e.size, r.Name, r.Base, r.Size)
	}
	if r.data == nil {
		return fmt.Sprintf("memspace: byte access to unbacked (phantom or freed) region %q", r.Name)
	}
	return fmt.Sprintf("memspace: [%#x,+%d) past the %d backed bytes of region %q [%#x,+%d)",
		e.addr, e.size, len(r.data), r.Name, r.Base, r.Size)
}

// Space is the machine's physical address space. The zero page
// (addresses below baseAddr) is never allocated so that Addr(0) can act
// as a null pointer in application data structures.
type Space struct {
	regions []*Region // sorted by Base
	next    Addr
}

const (
	baseAddr  Addr = 1 << 12
	alignment      = 64 // cacheline alignment for all regions
)

// New creates an empty address space.
func New() *Space {
	return &Space{next: baseAddr}
}

// Alloc reserves and backs a region of the given size and kind. Sizes
// are rounded up to cacheline alignment. It panics on a zero size —
// allocation failures here are programming errors, not runtime
// conditions.
func (s *Space) Alloc(name string, size uint64, kind Kind) *Region {
	return s.AllocPrefix(name, size, size, kind)
}

// AllocPhantom reserves a region with no backing storage: the address
// range and kind participate in Region/KindOf lookups — everything the
// timing models consult — but the bytes are never materialized. Use it
// for regions whose content no agent ever reads or writes, e.g. a DMA
// target whose steering depends only on the region kind (fig5's 1 GB
// working set). Byte access through Slice/Read/Write panics.
func (s *Space) AllocPhantom(name string, size uint64, kind Kind) *Region {
	return s.AllocPrefix(name, size, 0, kind)
}

// AllocPrefix reserves size bytes of address space and backs only the
// first backed of them (both rounded up to cacheline alignment, backed
// capped at size). The whole reservation takes part in lookups and
// moves the bump pointer exactly as Alloc of size would; byte access
// past the backed prefix panics. Alloc and AllocPhantom are its two
// extremes.
func (s *Space) AllocPrefix(name string, size, backed uint64, kind Kind) *Region {
	if size == 0 {
		panic("memspace: Alloc with zero size")
	}
	size = (size + alignment - 1) &^ uint64(alignment-1)
	backed = min((backed+alignment-1)&^uint64(alignment-1), size)
	r := &Region{
		Name:  name,
		Kind:  kind,
		Range: Range{Base: s.next, Size: size},
	}
	if backed > 0 {
		r.data = make([]byte, backed)
	}
	s.regions = append(s.regions, r)
	s.next += Addr(size)
	return r
}

// Adopt maps an existing region's backing bytes into s at the region's
// own addresses, as kind, and returns the new mapping. Both mappings
// share one backing array, so a write through either is visible
// through the other. Adopt panics unless r starts at s's bump pointer:
// the adopted region then sits exactly where an Alloc of its size
// would have put it, and every later allocation lands where it would
// have after that Alloc.
func (s *Space) Adopt(r *Region, kind Kind) *Region {
	if r.Base != s.next {
		panic(fmt.Sprintf("memspace: adopt %q at %#x, bump pointer at %#x", r.Name, r.Base, s.next))
	}
	a := &Region{Name: r.Name, Kind: kind, Range: r.Range, data: r.data}
	s.regions = append(s.regions, a)
	s.next += Addr(r.Size)
	return a
}

// Free unmaps r from s: r leaves the lookup slice, so its addresses
// read as unmapped, and this mapping drops its reference to the backed
// bytes, so byte access through r panics. The bump pointer never moves
// back, so no address is ever handed out twice and every later
// allocation lands where it would have without the free. Freeing a
// mapping made by Adopt unmaps it in s alone: the adopted region's
// home mapping keeps its bytes. Free panics unless r is mapped in s.
func (s *Space) Free(r *Region) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base >= r.Base })
	if i == len(s.regions) || s.regions[i] != r {
		panic(fmt.Sprintf("memspace: free of %q [%#x,+%d), not mapped in this space", r.Name, r.Base, r.Size))
	}
	s.regions = append(s.regions[:i], s.regions[i+1:]...)
	r.data = nil
}

// Region finds the region containing addr, or nil.
func (s *Space) Region(addr Addr) *Region {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].End() > addr
	})
	if i < len(s.regions) && s.regions[i].Contains(addr) {
		return s.regions[i]
	}
	return nil
}

// KindOf reports the kind of memory backing addr. It panics for
// unmapped addresses.
func (s *Space) KindOf(addr Addr) Kind {
	r := s.Region(addr)
	if r == nil {
		panic(fmt.Sprintf("memspace: KindOf unmapped address %#x", addr))
	}
	return r.Kind
}

// Read copies len(buf) bytes starting at addr into buf. The span must
// lie within a single region.
func (s *Space) Read(addr Addr, buf []byte) {
	copy(buf, s.mustSlice(addr, len(buf)))
}

// Write copies data into the space starting at addr. The span must lie
// within a single region.
func (s *Space) Write(addr Addr, data []byte) {
	copy(s.mustSlice(addr, len(data)), data)
}

// Slice returns the live backing bytes for [addr, addr+size); writes
// through the slice are visible to all agents (this is how the
// zero-copy ring buffers work).
func (s *Space) Slice(addr Addr, size int) []byte {
	return s.mustSlice(addr, size)
}

func (s *Space) mustSlice(addr Addr, size int) []byte {
	r := s.Region(addr)
	if r == nil {
		panic(fmt.Sprintf("memspace: access to unmapped address %#x", addr))
	}
	return r.Slice(addr, size)
}

// Regions returns the mapped regions (allocated and not freed) in
// address order.
func (s *Space) Regions() []*Region {
	out := make([]*Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// TotalAllocated returns the reserved bytes of the mapped regions: a
// freed region's range no longer counts, and a prefix-backed region
// counts its whole reservation, backed or not (the backed bytes are
// the sum of len(Bytes()) over Regions).
func (s *Space) TotalAllocated() uint64 {
	var total uint64
	for _, r := range s.regions {
		total += r.Size
	}
	return total
}
