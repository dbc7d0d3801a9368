package kvs

import (
	"fmt"

	"rambda/internal/memspace"
)

// slabAllocator carves key-value items out of a pre-allocated memory
// pool (paper Sec. IV-A: "the slab allocator will simply put it in the
// pre-defined memory pool", so the accelerator can allocate objects
// without CPU calls). Size classes are powers of two; freed items go to
// per-class free lists.
type slabAllocator struct {
	region memspace.Range
	next   memspace.Addr
	free   map[int][]memspace.Addr // class size -> free addrs

	allocated int64
	freed     int64
}

const (
	minClass = 64
	maxClass = 64 << 10
)

func newSlabAllocator(region memspace.Range) *slabAllocator {
	return &slabAllocator{
		region: region,
		next:   region.Base,
		free:   make(map[int][]memspace.Addr),
	}
}

// classFor rounds a byte count up to its size class.
func classFor(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("kvs: invalid allocation size %d", n)
	}
	c := minClass
	for c < n {
		c <<= 1
	}
	if c > maxClass {
		return 0, fmt.Errorf("kvs: allocation %d exceeds max item size %d", n, maxClass)
	}
	return c, nil
}

// alloc returns the address of a block able to hold n bytes.
func (s *slabAllocator) alloc(n int) (memspace.Addr, error) {
	c, err := classFor(n)
	if err != nil {
		return 0, err
	}
	if list := s.free[c]; len(list) > 0 {
		addr := list[len(list)-1]
		s.free[c] = list[:len(list)-1]
		s.allocated++
		return addr, nil
	}
	if uint64(s.next-s.region.Base)+uint64(c) > s.region.Size {
		return 0, fmt.Errorf("kvs: memory pool exhausted (%d B)", s.region.Size)
	}
	addr := s.next
	s.next += memspace.Addr(c)
	s.allocated++
	return addr, nil
}

// release returns a block of the class holding n bytes to the free
// list.
func (s *slabAllocator) release(addr memspace.Addr, n int) {
	c, err := classFor(n)
	if err != nil {
		panic(err)
	}
	s.free[c] = append(s.free[c], addr)
	s.freed++
}

// liveBlocks reports allocations minus frees.
func (s *slabAllocator) liveBlocks() int64 { return s.allocated - s.freed }

// slabState is a copy of an allocator's mutable state. Its lists are
// its own arrays, so saving into the same slabState again reuses their
// capacity.
type slabState struct {
	next             memspace.Addr
	free             map[int][]memspace.Addr
	allocated, freed int64
}

// save copies the allocator's state into st.
func (s *slabAllocator) save(st *slabState) {
	st.next, st.allocated, st.freed = s.next, s.allocated, s.freed
	if st.free == nil {
		st.free = make(map[int][]memspace.Addr, len(s.free))
	}
	for c := range st.free {
		st.free[c] = st.free[c][:0]
	}
	for c, list := range s.free {
		st.free[c] = append(st.free[c], list...)
	}
}

// restore returns the allocator to a state saved from it. A class whose
// list was first created after the save keeps an empty list, which
// allocates exactly as an absent one does.
func (s *slabAllocator) restore(st *slabState) {
	s.next, s.allocated, s.freed = st.next, st.allocated, st.freed
	for c, list := range s.free {
		s.free[c] = append(list[:0], st.free[c]...)
	}
}
