// Package memspace implements the unified physical address space shared
// by the CPU, the RNIC, and the cc-accelerator in a RAMBDA machine
// (paper Sec. III: "a unified memory subsystem with both CPU-attached
// and accelerator-attached physical memory ... in the same address
// space and coherence domain").
//
// Regions carry real backing storage: the simulated RDMA verbs, ring
// buffers, KVS, transaction log, and DLRM tables all move actual bytes
// through this space, so functional correctness is testable
// independently of the timing model.
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

// Region is an allocated, backed interval of the address space.
type Region struct {
	Name string
	Kind Kind
	Range
	data []byte
}

// Bytes exposes the region's backing storage.
func (r *Region) Bytes() []byte { return r.data }

// Phantom reports whether the region is timing-only (no backing
// storage).
func (r *Region) Phantom() bool { return r.data == nil }

// Slice returns the backing bytes for [addr, addr+size) inside the
// region.
func (r *Region) Slice(addr Addr, size int) []byte {
	off := addr - r.Base
	if !r.Contains(addr) || uint64(off)+uint64(size) > r.Size {
		panic(fmt.Sprintf("memspace: [%#x,+%d) outside region %q [%#x,+%d)",
			addr, size, r.Name, r.Base, r.Size))
	}
	if r.data == nil {
		panic(fmt.Sprintf("memspace: byte access to phantom region %q", r.Name))
	}
	return r.data[off : uint64(off)+uint64(size)]
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
	return s.alloc(name, size, kind, true)
}

// AllocPhantom reserves a region with no backing storage: the address
// range and kind participate in Region/KindOf lookups — everything the
// timing models consult — but the bytes are never materialized. Use it
// for regions whose content no agent ever reads or writes, e.g. a DMA
// target whose steering depends only on the region kind (fig5's 1 GB
// working set). Byte access through Slice/Read/Write panics.
func (s *Space) AllocPhantom(name string, size uint64, kind Kind) *Region {
	return s.alloc(name, size, kind, false)
}

func (s *Space) alloc(name string, size uint64, kind Kind, backed bool) *Region {
	if size == 0 {
		panic("memspace: Alloc with zero size")
	}
	size = (size + alignment - 1) &^ uint64(alignment-1)
	r := &Region{
		Name:  name,
		Kind:  kind,
		Range: Range{Base: s.next, Size: size},
	}
	if backed {
		r.data = make([]byte, size)
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

// Regions returns all allocated regions in address order.
func (s *Space) Regions() []*Region {
	out := make([]*Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// TotalAllocated returns the number of allocated bytes.
func (s *Space) TotalAllocated() uint64 {
	var total uint64
	for _, r := range s.regions {
		total += r.Size
	}
	return total
}
