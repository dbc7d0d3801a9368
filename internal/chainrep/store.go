// Package chainrep implements the distributed transaction system of
// paper Sec. IV-B: chain replication over NVM-resident data with a redo
// log, a per-key concurrency control unit in the accelerator, and the
// HyperLoop baseline (group-based RDMA ops issued sequentially per
// key-value pair). The topology mirrors Fig. 11's emulated two-replica
// chain with ARM-core routing between ports.
package chainrep

import (
	"fmt"

	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Store is a HyperLoop-style flat NVM data area: key-value pairs are
// addressed by byte offset relative to the region base (paper: "stored
// in the NVM and accessed by the address offset relative to the
// starting address").
type Store struct {
	space  *memspace.Space
	mem    *memdev.System
	region *memspace.Region
}

// NewStore allocates the NVM data area.
func NewStore(space *memspace.Space, mem *memdev.System, bytes uint64) *Store {
	return &Store{
		space:  space,
		mem:    mem,
		region: space.Alloc("chainrep-data", bytes, memspace.KindNVM),
	}
}

// Size returns the data area capacity.
func (s *Store) Size() uint64 { return s.region.Size }

// Range returns the data region (for MR registration).
func (s *Store) Range() memspace.Range { return s.region.Range }

func (s *Store) check(offset uint32, n int) {
	if uint64(offset)+uint64(n) > s.region.Size {
		panic(fmt.Sprintf("chainrep: access [%d,+%d) outside data area %d", offset, n, s.region.Size))
	}
}

// ReadInto appends n bytes at offset to dst, charging the NVM read.
// With a reused buffer the read is allocation-free once the buffer's
// capacity covers the working size.
func (s *Store) ReadInto(dst []byte, now sim.Time, offset uint32, n int) ([]byte, sim.Time) {
	s.check(offset, n)
	at := s.mem.NVM.Read(now, n)
	base := len(dst)
	if cap(dst)-base < n {
		grown := make([]byte, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	s.space.Read(s.region.Base+memspace.Addr(offset), dst[base:])
	return dst, at
}

// Write stores data at offset, charging a sequential NVM write.
func (s *Store) Write(now sim.Time, offset uint32, data []byte) sim.Time {
	s.check(offset, len(data))
	at := s.mem.NVM.WriteSequential(now, len(data))
	s.space.Write(s.region.Base+memspace.Addr(offset), data)
	return at
}
