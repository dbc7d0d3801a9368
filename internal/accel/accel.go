// Package accel models the RAMBDA cc-accelerator (paper Sec. III-C,
// Fig. 4): a coherence controller with TLB and pinned local cache
// sitting on the cc-interconnect, a round-robin scheduler fed by cpoll
// signals, an application processing unit (APU) plug-in interface,
// and an RDMA SQ handler that drives the NIC directly (WQE assembly +
// doorbells) without CPU involvement. The prototype's 256-entry FSM
// table of outstanding requests is not modeled: each request is walked
// to completion by its caller.
//
// The same type models all three hardware variants of the paper's
// evaluation: the prototype with no local memory (all data over UPI),
// RAMBDA-LD (2-channel DDR4) and RAMBDA-LH (32-channel HBM2).
package accel

import (
	"fmt"

	"rambda/internal/coherence"
	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Config describes an accelerator instance.
type Config struct {
	Name string
	// ClockHz is the fabric clock (400 MHz on the Arria 10 prototype;
	// the paper notes server-class coherence controllers run ~2 GHz).
	ClockHz float64
	// LocalCacheBytes is the coherence-domain local cache (64 KB on the
	// prototype); the direct-mode cpoll region must fit here.
	LocalCacheBytes int
	// IssueCycles is the controller occupancy, in fabric cycles, to
	// issue one memory operation onto the cc-link. This is the "memory
	// requests have to be issued serially from the FPGA's wimpy
	// coherence controller" bottleneck of Sec. VI-D.
	IssueCycles int
	// ComputeUnits is the number of parallel APU functional units.
	ComputeUnits int
	// TLBEntries and PageBytes configure the controller TLB (2 MB huge
	// pages on the prototype). A miss costs a page-table walk in host
	// memory.
	TLBEntries int
	PageBytes  uint64
}

// DefaultConfig returns the paper's prototype configuration.
func DefaultConfig(name string) Config {
	return Config{
		Name:            name,
		ClockHz:         400e6,
		LocalCacheBytes: 64 << 10,
		IssueCycles:     2,
		ComputeUnits:    4,
		TLBEntries:      512,
		PageBytes:       2 << 20,
	}
}

// Accel is one cc-accelerator.
type Accel struct {
	cfg Config

	// issue is the controller's serialization point: one memory
	// operation enters the cc-link per IssueCycles.
	issue *sim.Resource
	// localPipe is the accelerator-local memory controller pipeline
	// (LD/LH variants): local accesses bypass the wimpy cc-link issue
	// stage entirely, which is where the paper's LD/LH gains come from.
	localPipe *sim.Resource
	// compute is the APU's functional-unit pool.
	compute *sim.Resource

	link  *interconnect.CCLink
	host  *memdev.System
	space *memspace.Space
	coh   *coherence.Domain

	// local is accelerator-attached memory; nil on the prototype.
	local *memdev.LocalMem

	tlb *TLB

	pinned []memspace.Range // regions held in the local cache
}

// New builds an accelerator attached to a host memory system via the
// cc-link. local may be nil (prototype variant).
func New(cfg Config, link *interconnect.CCLink, host *memdev.System, space *memspace.Space,
	coh *coherence.Domain, local *memdev.LocalMem) *Accel {
	if cfg.ClockHz <= 0 || cfg.IssueCycles <= 0 {
		panic("accel: bad clock configuration")
	}
	if cfg.ComputeUnits <= 0 {
		cfg.ComputeUnits = 1
	}
	cyc := sim.Duration(float64(sim.Second) / cfg.ClockHz)
	return &Accel{
		cfg:       cfg,
		issue:     sim.NewResource(cfg.Name+":issue", 1, sim.Duration(cfg.IssueCycles)*cyc, 0, 0),
		localPipe: sim.NewResource(cfg.Name+":local-pipe", 1, 3*cyc/2, 0, 0),
		// The compute pool is calibrated in "bytes" of one cycle each:
		// an op of N cycles occupies one functional unit for N/ClockHz.
		compute: sim.NewResource(cfg.Name+":apu", cfg.ComputeUnits, 0, cfg.ClockHz, 0),
		link:    link,
		host:    host,
		space:   space,
		coh:     coh,
		local:   local,
		tlb:     NewTLB(cfg.TLBEntries, cfg.PageBytes),
	}
}

// Config returns the accelerator's configuration.
func (a *Accel) Config() Config { return a.cfg }

// TLBStats exposes translation statistics.
func (a *Accel) TLBStats() (hits, misses int64) { return a.tlb.hits, a.tlb.misses }

// HasLocalMemory reports whether this is an LD/LH-style variant.
func (a *Accel) HasLocalMemory() bool { return a.local != nil }

// CycleTime returns one fabric clock period.
func (a *Accel) CycleTime() sim.Duration {
	return sim.Duration(float64(sim.Second) / a.cfg.ClockHz)
}

// Pin records a region as permanently resident in the local cache (the
// framework pins the cpoll region at registration, Sec. III-E). The
// aggregate pinned size must fit the cache.
func (a *Accel) Pin(r memspace.Range) {
	total := r.Size
	for _, p := range a.pinned {
		total += p.Size
	}
	if total > uint64(a.cfg.LocalCacheBytes) {
		panic(fmt.Sprintf("accel: pinning %d B exceeds local cache %d B", total, a.cfg.LocalCacheBytes))
	}
	a.pinned = append(a.pinned, r)
	a.coh.Pin(coherence.AgentAccel, r)
}

func (a *Accel) isPinned(addr memspace.Addr) bool {
	for _, p := range a.pinned {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// translate charges the TLB; a miss walks the page table in host
// memory (four dependent reads).
func (a *Accel) translate(now sim.Time, addr memspace.Addr) sim.Time {
	if a.tlb.Lookup(addr) {
		return now
	}
	// Page tables live in host DRAM regardless of where the data is.
	at := now
	for i := 0; i < 4; i++ {
		at = a.link.Transfer(at, coherence.LineSize)
		at = a.host.DRAM.Access(at, coherence.LineSize)
	}
	a.tlb.Insert(addr)
	return at
}

// Fetch is the cpoll.FetchFunc: the controller issues a read for
// coherence-state data. Pinned lines that the accelerator still owns
// are local-cache hits; invalidated or unpinned lines cross the
// cc-link to the host.
func (a *Accel) Fetch(now sim.Time, addr memspace.Addr, bytes int) sim.Time {
	_, at := a.issue.Acquire(now, 0)
	if a.isPinned(addr) && a.coh.Owned(coherence.AgentAccel, addr) {
		// Local cache hit: one fabric cycle.
		return at + a.CycleTime()
	}
	at = a.translate(at, addr)
	at = a.link.Transfer(at, bytes)
	return a.host.MemRead(at, addr, bytes)
}

// ReadData performs an application data read: local accesses go
// through the accelerator's own memory controller pipeline; host
// accesses go through the cc-link issue stage and the host device.
func (a *Accel) ReadData(now sim.Time, addr memspace.Addr, bytes int) sim.Time {
	if a.local != nil && a.space.KindOf(addr) == memspace.KindAccelLocal {
		_, at := a.localPipe.Acquire(now, 0)
		at = a.translate(at, addr)
		return a.local.Access(at, bytes)
	}
	_, at := a.issue.Acquire(now, 0)
	at = a.translate(at, addr)
	at = a.link.Transfer(at, bytes)
	return a.host.MemRead(at, addr, bytes)
}

// ReadDataBlocking performs a data read during which the coherence
// controller stays occupied for the whole round trip — no overlap with
// other requests. This is the "memory requests have to be issued
// serially from the FPGA's wimpy coherence controller" behaviour the
// paper observes on dense gather loops (Sec. VI-D, also [42]); the
// DLRM APU on the prototype suffers it, while local-memory variants
// use their own pipelined controllers (ReadData).
func (a *Accel) ReadDataBlocking(now sim.Time, addr memspace.Addr, bytes int) sim.Time {
	// Probe when the controller frees up, walk the access from there,
	// then book the controller for the whole window.
	if a.local != nil && a.space.KindOf(addr) == memspace.KindAccelLocal {
		// Local-memory controllers pipeline; blocking semantics only
		// afflict the cc-link path.
		return a.ReadData(now, addr, bytes)
	}
	start := sim.Max(now, a.issue.NextFree())
	at := a.translate(start, addr)
	at = a.link.Transfer(at, bytes)
	at = a.host.MemRead(at, addr, bytes)
	// The controller frees once the response starts streaming back, so
	// the next request overlaps the tail half of this round trip.
	a.issue.Occupy(start, (at-start)/2)
	return at
}

// ReadDataWave issues a wave of independent reads the way the DLRM APU
// does ("we issue 64 memory requests for each query's iteration so that
// the memory bandwidth can be fully utilized", Sec. IV-C): local-memory
// variants pay one pipeline slot for the whole wave and the per-row
// device costs in parallel; the cc-link path cannot sustain wide issue
// (the Sec. VI-D serial-issue bottleneck) and degenerates to blocking
// reads.
func (a *Accel) ReadDataWave(now sim.Time, addrs []memspace.Addr, bytes int) sim.Time {
	if len(addrs) == 0 {
		return now
	}
	if a.local != nil && a.space.KindOf(addrs[0]) == memspace.KindAccelLocal {
		_, at := a.localPipe.Acquire(now, 0)
		at = a.translate(at, addrs[0])
		var last sim.Time
		for range addrs {
			done := a.local.Access(at, bytes)
			if done > last {
				last = done
			}
		}
		return last
	}
	at := now
	for _, addr := range addrs {
		at = a.ReadDataBlocking(at, addr, bytes)
	}
	return at
}

// WriteData performs an application data write (functional + timed) and
// notifies the coherence domain.
func (a *Accel) WriteData(now sim.Time, addr memspace.Addr, data []byte) sim.Time {
	var at sim.Time
	if a.local != nil && a.space.KindOf(addr) == memspace.KindAccelLocal {
		_, at = a.localPipe.Acquire(now, 0)
		at = a.translate(at, addr)
		at = a.local.Access(at, len(data))
	} else {
		_, at = a.issue.Acquire(now, 0)
		at = a.translate(at, addr)
		at = a.link.Transfer(at, len(data))
		at = a.host.MemWrite(at, addr, len(data))
	}
	a.space.Write(addr, data)
	a.coh.Write(coherence.AgentAccel, addr, len(data), at)
	return at
}

// Compute charges `cycles` fabric cycles on one APU functional unit.
func (a *Accel) Compute(now sim.Time, cycles int) sim.Time {
	if cycles <= 0 {
		return now
	}
	_, done := a.compute.Acquire(now, cycles)
	return done
}

// Space returns the unified address space the accelerator operates in.
func (a *Accel) Space() *memspace.Space { return a.space }

// Link exposes the cc-link (for utilization accounting in experiments).
func (a *Accel) Link() *interconnect.CCLink { return a.link }

// IssueResource exposes the controller pipeline (for tests/stats).
func (a *Accel) IssueResource() *sim.Resource { return a.issue }
