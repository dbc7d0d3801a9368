package memspace

import "rambda/internal/sim"

// This file holds the address-space micro kernel cmd/rambda-bench
// times: the region lookup every byte access, KindOf steering decision
// and DMA target check goes through.

const (
	benchRegions     = 256
	benchRegionBytes = 4096
	benchAddrs       = 1024 // pre-drawn lookups, so the kernel times the search
)

// BenchRegion runs n Region lookups of random mapped addresses over a
// space of 256 4 KiB regions and returns a checksum of the region bases
// found. One op is one binary search; it allocates nothing.
func BenchRegion(n int) Addr {
	s := New()
	for i := 0; i < benchRegions; i++ {
		s.Alloc("r", benchRegionBytes, KindDRAM)
	}
	rng := sim.NewRNG(1)
	addrs := make([]Addr, benchAddrs)
	for i := range addrs {
		addrs[i] = baseAddr + Addr(rng.Intn(benchRegions*benchRegionBytes))
	}
	var sum Addr
	for i := 0; i < n; i++ {
		r := s.Region(addrs[i%benchAddrs])
		if r == nil {
			panic("memspace bench: unmapped address")
		}
		sum += r.Base
	}
	return sum
}
