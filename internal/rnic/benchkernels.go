package rnic

import (
	"rambda/internal/coherence"
	"rambda/internal/fault"
	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Benchmark kernels for the RC transport, shared between this package's
// testing.B benchmarks and cmd/rambda-bench. BenchWriteHotPath pins the
// cost of the zero-fault fast path (the regression guard for the fault
// machinery: with no injector attached the per-write cost must not
// grow); BenchRetransmitStorm exercises the full loss/retransmit/backoff
// loop.

// benchHost builds a minimal host + NIC at the testbed parameters.
func benchHost(name string) (*memspace.Space, *NIC, *memspace.Region) {
	space := memspace.New()
	dram := space.Alloc(name+"-dram", 1<<20, memspace.KindDRAM)
	mem := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM(name+":dram", 6, 120e9, 90*sim.Nanosecond),
		NVM:   memdev.NewNVM(name+":nvm", 6, 39e9, 300*sim.Nanosecond, 3),
		LLC:   memdev.NewLLC(name+":llc", 300e9, 20*sim.Nanosecond),
	}
	host := &Host{
		Space: space,
		Mem:   mem,
		PCIe:  interconnect.NewPCIe(name+":pcie-in", 16e9, 300*sim.Nanosecond, 400*sim.Nanosecond),
		PCIeR: interconnect.NewPCIe(name+":pcie-out", 16e9, 300*sim.Nanosecond, 400*sim.Nanosecond),
		Coh:   coherence.NewDomain(),
		Agent: coherence.AgentNIC,
	}
	return space, New(Config{Name: name}, host), dram
}

// benchPair wires two hosts through a duplex carrying the given fault
// plan (empty plan rules keep the nil fast path).
func benchPair(plan fault.Plan) (*QP, memspace.Addr, memspace.Addr) {
	_, aNIC, aDRAM := benchHost("a")
	_, bNIC, bDRAM := benchHost("b")
	d := interconnect.NewDuplex("net", 3.125e9, 2*sim.Microsecond)
	if len(plan.Links) > 0 || len(plan.Nodes) > 0 {
		d.AttachFaults(fault.New(plan))
	}
	Connect(aNIC, bNIC, d)
	qa, qb := aNIC.NewQP(), bNIC.NewQP()
	ConnectQP(qa, qb)
	return qa, aDRAM.Base, bDRAM.Base
}

// BenchWriteHotPath drives n signaled RC writes over a clean fabric —
// the allocation-sensitive fast path every figure rides on.
func BenchWriteHotPath(n int) sim.Time {
	qa, la, ra := benchPair(fault.Plan{})
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		qa.PostSend(WQE{LocalAddr: la, RemoteAddr: ra, Len: 1024, Signaled: true})
		now = qa.Doorbell(now)[0].CQEAt
	}
	return now
}

// BenchRetransmitStorm drives n signaled writes through a 30%-drop
// forward path: every third burst retransmits, exercising the
// per-packet fault draw, the go-back-N resend, and the exponential
// backoff arithmetic. The ~7-in-100k writes that exhaust the retry
// budget recover the QP and continue — the error/flush path is part of
// the storm.
func BenchRetransmitStorm(n int) sim.Time {
	qa, la, ra := benchPair(fault.Plan{Seed: 97, Links: []fault.LinkRule{
		{Link: "net:a->b", Drop: 0.3},
	}})
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		qa.PostSend(WQE{LocalAddr: la, RemoteAddr: ra, Len: 1024, Signaled: true})
		res := qa.Doorbell(now)
		if res[0].Status != CQEOK {
			qa.Recover()
		}
		now = res[0].CQEAt
	}
	return now
}
