package accel

import (
	"rambda/internal/interconnect"
	"rambda/internal/memspace"
	"rambda/internal/rnic"
	"rambda/internal/sim"
)

// SQHandler is the accelerator block that drives the RNIC directly
// (paper Sec. III-C): it assembles response information from the APU
// into WQE format, writes it into the corresponding RDMA connection's
// work queue in host memory (only the WQ base and length are registered
// in the handler, so per-connection state on the accelerator stays
// tiny), and rings the RNIC's doorbell register via MMIO.
//
// SQHandler implements ringbuf.Transport, so a ringbuf.ServerConn whose
// responses should leave through the NIC can use it directly. Doorbell
// MMIO (and its surrounding sfence) is "relatively expensive" from the
// fabric, so the handler batches: one MMIO per Batch responses
// (Fig. 10's RAMBDA batching effect).
type SQHandler struct {
	accel *Accel
	qp    *rnic.QP
	pcie  *interconnect.PCIe // host->NIC direction for doorbells
	// staging is a host-memory region the response payloads are placed
	// in for the NIC to DMA out of (the response data's home).
	staging *memspace.Region

	// Batch is the number of responses amortizing one doorbell MMIO.
	Batch int

	posted int64
	mmio   int64
	wrid   uint64
	slot   int
}

// wqeBytes is the size of one work queue entry the handler writes;
// fenceCycles is how long the post-doorbell sfence stalls the fabric.
const (
	wqeBytes    = 64
	fenceCycles = 30
)

// NewSQHandler builds the handler for one RDMA connection.
func NewSQHandler(a *Accel, qp *rnic.QP, pcie *interconnect.PCIe, staging *memspace.Region, batch int) *SQHandler {
	if batch <= 0 {
		batch = 1
	}
	return &SQHandler{accel: a, qp: qp, pcie: pcie, staging: staging, Batch: batch}
}

// Doorbells reports MMIO doorbell writes issued.
func (h *SQHandler) Doorbells() int64 { return h.mmio }

// Deliver implements ringbuf.Transport: the APU's response bytes are
// staged in host memory, a WQE is assembled and written to the WQ over
// the cc-link, the doorbell is rung (amortized), and the NIC executes
// the one-sided WRITE toward the client.
func (h *SQHandler) Deliver(now sim.Time, entryAddr memspace.Addr, entry []byte, ptrAddr memspace.Addr, ptrVal uint32) sim.Time {
	// Stage the response payload in host memory (rotating slots so
	// concurrent responses don't share a staging line).
	const stagingSlots = 4
	slotSize := int(h.staging.Size) / stagingSlots
	if len(entry) > slotSize {
		panic("accel: response exceeds staging slot")
	}
	base := h.staging.Base + memspace.Addr(h.slot*slotSize)
	h.slot = (h.slot + 1) % stagingSlots
	at := h.accel.WriteData(now, base, entry)

	// Assemble and write the WQE into the WQ (host memory via cc-link).
	at = h.accel.Link().Transfer(at, wqeBytes)
	at = h.accel.host.LLC.Access(at, wqeBytes)

	h.wrid++
	h.qp.PostSend(rnic.WQE{
		Op: rnic.OpWrite, LocalAddr: base, RemoteAddr: entryAddr,
		Len: len(entry), WRID: h.wrid,
	})
	if ptrAddr != 0 {
		panic("accel: pointer-buffer updates flow client->server, not through the SQ handler")
	}

	// Ring the doorbell: a full MMIO + fence every Batch responses; the
	// RNIC prefetches WQEs promptly otherwise. The store fence stalls
	// the fabric's issue pipeline for its duration — the "relatively
	// expensive" cost doorbell batching amortizes (paper Fig. 10's ~2x
	// RAMBDA batching gain).
	h.posted++
	if h.posted%int64(h.Batch) == 0 {
		h.mmio++
		at = h.pcie.MMIOWrite(at)
		_, at = h.accel.IssueResource().Occupy(at, fenceCycles*h.accel.CycleTime())
	}
	results := h.qp.ExecutePosted(at)
	return results[len(results)-1].RemoteVisible
}
