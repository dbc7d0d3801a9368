package ringbuf

import (
	"rambda/internal/coherence"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/rnic"
	"rambda/internal/sim"
)

// RDMATransport delivers messages with one-sided RDMA WRITEs. The
// optional pointer-buffer update travels with the entry in a single
// WQE via user-mode memory registration, the UMR variant of paper
// Sec. III-B ("remapping/interleaving the two buffers with UMR and only
// posting one WQE"): one wire message carries entry+4 bytes, and the
// remote NIC scatters the pointer update, raising the cpoll signal.
type RDMATransport struct {
	qp      *rnic.QP
	space   *memspace.Space // producer-side space holding the staging buffer
	staging *memspace.Region
	wrid    uint64

	// Signaled requests a CQE per message — the two-sided baselines
	// need completions; RAMBDA's one-sided writes run unsignaled.
	Signaled bool
}

// NewRDMATransport creates a transport over a connected QP. staging is
// a producer-local region the NIC DMA-reads message bytes from (the
// equivalent of the client's registered send buffer).
func NewRDMATransport(qp *rnic.QP, space *memspace.Space, staging *memspace.Region) *RDMATransport {
	return &RDMATransport{qp: qp, space: space, staging: staging}
}

// Deliver implements Transport.
func (t *RDMATransport) Deliver(now sim.Time, entryAddr memspace.Addr, entry []byte, ptrAddr memspace.Addr, ptrVal uint32) sim.Time {
	if len(entry) > int(t.staging.Size)-PtrEntryBytes {
		panic("ringbuf: staging region too small for entry")
	}
	t.space.Write(t.staging.Base, entry)
	wire := len(entry)
	if ptrAddr != 0 {
		wire += PtrEntryBytes // UMR-interleaved pointer update
	}
	t.wrid++
	t.qp.PostSend(rnic.WQE{
		LocalAddr: t.staging.Base, RemoteAddr: entryAddr,
		Len: wire, Signaled: t.Signaled, WRID: t.wrid,
	})
	results := t.qp.Doorbell(now)
	visible := results[len(results)-1].RemoteVisible
	if ptrAddr != 0 {
		// The remote NIC scatters the UMR-mapped pointer bytes; timing
		// is covered by the combined WQE, placement is functional.
		host := t.qp.RemoteHost()
		buf := host.Space.Slice(ptrAddr, PtrEntryBytes)
		buf[0] = byte(ptrVal)
		buf[1] = byte(ptrVal >> 8)
		buf[2] = byte(ptrVal >> 16)
		buf[3] = byte(ptrVal >> 24)
		host.Coh.Write(host.Agent, ptrAddr, PtrEntryBytes, visible)
	}
	return visible
}

// LocalTransport delivers messages inside one machine, emulating
// one-sided RDMA behaviour the way the paper's microbenchmark does
// (Sec. VI-A: CPU cores on the other NUMA node feed requests "via
// shared memory buffer (to emulate the one-sided RDMA behavior)"): the
// write is steered like a DMA — into the LLC for DRAM-backed rings,
// directly to the device for NVM-backed rings under adaptive DDIO — and
// the coherence domain is notified so a pinned snooper (the cpoll
// checker) sees it.
type LocalTransport struct {
	Space *memspace.Space
	Mem   *memdev.System
	Coh   *coherence.Domain
	Agent coherence.AgentID
	// Link, when non-nil, is crossed before the store becomes visible
	// (an accelerator storing into CPU-attached memory pays the
	// cc-link; a CPU storing into its own LLC does not).
	Link interface {
		Transfer(now sim.Time, bytes int) sim.Time
	}
}

// Deliver implements Transport.
func (t *LocalTransport) Deliver(now sim.Time, entryAddr memspace.Addr, entry []byte, ptrAddr memspace.Addr, ptrVal uint32) sim.Time {
	at := now
	if t.Link != nil {
		bytes := len(entry)
		if ptrAddr != 0 {
			bytes += PtrEntryBytes
		}
		at = t.Link.Transfer(at, bytes)
	}
	// Adaptive DDIO steering: DRAM rings carry the TPH hint, NVM rings
	// do not (paper Sec. III-D).
	tph := t.Space.KindOf(entryAddr) == memspace.KindDRAM
	at, _ = t.Mem.DMAWrite(at, entryAddr, len(entry), tph)
	t.Space.Write(entryAddr, entry)
	t.Coh.Write(t.Agent, entryAddr, len(entry), at)
	if ptrAddr != 0 {
		buf := t.Space.Slice(ptrAddr, PtrEntryBytes)
		buf[0] = byte(ptrVal)
		buf[1] = byte(ptrVal >> 8)
		buf[2] = byte(ptrVal >> 16)
		buf[3] = byte(ptrVal >> 24)
		t.Coh.Write(t.Agent, ptrAddr, PtrEntryBytes, at)
	}
	return at
}
