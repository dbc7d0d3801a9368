package rnic

import (
	"bytes"
	"testing"

	"rambda/internal/coherence"
	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// testMachine is a minimal host for NIC tests.
type testMachine struct {
	space *memspace.Space
	host  *Host
	nic   *NIC
	dram  *memspace.Region
	nvm   *memspace.Region
}

func newTestMachine(name string) *testMachine {
	space := memspace.New()
	dram := space.Alloc(name+"-dram", 1<<20, memspace.KindDRAM)
	nvm := space.Alloc(name+"-nvm", 1<<20, memspace.KindNVM)
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
	return &testMachine{
		space: space,
		host:  host,
		nic:   New(Config{Name: name}, host),
		dram:  dram,
		nvm:   nvm,
	}
}

func newPair(t *testing.T) (*testMachine, *testMachine, *QP, *QP) {
	t.Helper()
	a, b := newTestMachine("a"), newTestMachine("b")
	Connect(a.nic, b.nic, interconnect.NewDuplex("net", 3.125e9, 2*sim.Microsecond))
	qa, qb := a.nic.NewQP(), b.nic.NewQP()
	ConnectQP(qa, qb)
	return a, b, qa, qb
}

func TestOneSidedWriteMovesData(t *testing.T) {
	a, b, qa, _ := newPair(t)
	msg := []byte("rambda one-sided write")
	a.space.Write(a.dram.Base, msg)

	qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base,
		Len: len(msg), Signaled: true, WRID: 7})
	res := qa.Doorbell(0)
	if len(res) != 1 {
		t.Fatalf("results=%d", len(res))
	}
	got := make([]byte, len(msg))
	b.space.Read(b.dram.Base, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("remote memory = %q", got)
	}
	if res[0].RemoteVisible <= 2*sim.Microsecond {
		t.Fatalf("remote visible at %v, must include one-way wire latency", res[0].RemoteVisible)
	}
	if res[0].CQEAt <= res[0].RemoteVisible {
		t.Fatal("signaled CQE must follow remote visibility (ACK round trip)")
	}
	if qa.CQ().Len() != 1 {
		t.Fatal("CQE not delivered")
	}
	cqes := qa.CQ().Poll(10)
	if len(cqes) != 1 || cqes[0].WRID != 7 {
		t.Fatalf("cqes=%v", cqes)
	}
}

func TestUnsignaledSkipsCQE(t *testing.T) {
	a, b, qa, _ := newPair(t)
	_ = b
	qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 64})
	res := qa.Doorbell(0)
	if res[0].CQEAt != 0 {
		t.Fatal("unsignaled op must not produce a CQE time")
	}
	if qa.CQ().Len() != 0 {
		t.Fatal("unsignaled op must not write a CQE")
	}
}

func TestTwoSidedSendRecv(t *testing.T) {
	a, b, qa, qb := newPair(t)
	msg := []byte("two-sided hello")
	a.space.Write(a.dram.Base, msg)
	qb.PostRecv(b.dram.Base+256, 64, 42)
	qa.PostSend(WQE{Op: OpSend, LocalAddr: a.dram.Base, Len: len(msg)})
	qa.Doorbell(0)

	got := make([]byte, len(msg))
	b.space.Read(b.dram.Base+256, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("recv buffer = %q", got)
	}
	cqes := qb.CQ().Poll(10)
	if len(cqes) != 1 || cqes[0].WRID != 42 || cqes[0].Len != len(msg) {
		t.Fatalf("receive completion %v", cqes)
	}
}

func TestSendWithoutRecvRNRExhausts(t *testing.T) {
	// A SEND with no posted receive draws RNR NAKs until the RNR retry
	// budget runs out, then completes with an error CQE — even though
	// the WQE was unsignaled (errors always complete) — and the QP lands
	// in the error state.
	a, _, qa, _ := newPair(t)
	qa.PostSend(WQE{Op: OpSend, LocalAddr: a.dram.Base, Len: 8, WRID: 11})
	res := qa.Doorbell(0)
	if len(res) != 1 || res[0].Status != CQERNRRetryExceeded {
		t.Fatalf("results=%+v, want RNR_RETRY_EXC", res)
	}
	if res[0].RemoteVisible != 0 {
		t.Fatal("failed SEND must not report a remote-visible time")
	}
	if qa.State() != QPError {
		t.Fatal("QP must enter the error state after RNR exhaustion")
	}
	if got := qa.Stats().RNRNaks; got != int64(qa.rnrRetryLimit()) {
		t.Fatalf("RNR NAKs=%d, want %d", got, qa.rnrRetryLimit())
	}
	cqes := qa.CQ().Poll(10)
	if len(cqes) != 1 || cqes[0].WRID != 11 || cqes[0].Status != CQERNRRetryExceeded {
		t.Fatalf("cqes=%+v, want one RNR error CQE", cqes)
	}
}

func TestDoorbellBatchingAmortizesMMIO(t *testing.T) {
	// N writes under one doorbell must complete sooner than N writes
	// with N doorbells.
	run := func(batch bool) sim.Time {
		a, b, qa, _ := newPair(t)
		_ = a
		var last sim.Time
		const n = 16
		if batch {
			for i := 0; i < n; i++ {
				qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 64})
			}
			for _, r := range qa.Doorbell(0) {
				last = r.RemoteVisible
			}
			if qa.Doorbells() != 1 {
				t.Fatalf("doorbells=%d", qa.Doorbells())
			}
		} else {
			now := sim.Time(0)
			for i := 0; i < n; i++ {
				qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 64})
				res := qa.Doorbell(now)
				last = res[0].RemoteVisible
				now = last
			}
			if qa.Doorbells() != n {
				t.Fatalf("doorbells=%d", qa.Doorbells())
			}
		}
		return last
	}
	if batched, serial := run(true), run(false); batched >= serial {
		t.Fatalf("batched=%v not faster than serial=%v", batched, serial)
	}
}

func TestTPHFollowsMemoryRegion(t *testing.T) {
	a, b, qa, _ := newPair(t)
	// Adaptive DDIO: DRAM region registered with TPH, NVM without.
	b.nic.RegisterMR(b.dram.Range, true)
	b.nic.RegisterMR(b.nvm.Range, false)
	b.host.Mem.LLC.DDIOEnabled = false // guideline 1: DDIO off globally

	qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 1024})
	qa.Doorbell(0)
	if b.host.Mem.LLC.LLCBytes() != 1024 {
		t.Fatalf("DRAM-region write should DDIO to LLC, llcBytes=%d", b.host.Mem.LLC.LLCBytes())
	}

	qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.nvm.Base, Len: 1024})
	qa.Doorbell(0)
	if b.host.Mem.LLC.MemoryBypassBytes() != 1024 {
		t.Fatalf("NVM-region write must bypass LLC, bypass=%d", b.host.Mem.LLC.MemoryBypassBytes())
	}
	if amp := b.host.Mem.NVM.WriteAmplification(); amp > 1.1 {
		t.Fatalf("NVM amplification=%v under adaptive DDIO, want ~1", amp)
	}
}

func TestDMAWriteTriggersCoherenceSignal(t *testing.T) {
	a, b, qa, _ := newPair(t)
	fired := 0
	b.host.Coh.SetSnooper(coherence.AgentAccel, func(coherence.Signal) { fired++ })
	b.host.Coh.Pin(coherence.AgentAccel, memspace.Range{Base: b.dram.Base, Size: 64})
	qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 64})
	qa.Doorbell(0)
	if fired != 1 {
		t.Fatalf("coherence signals=%d, want 1 (this is the cpoll trigger path)", fired)
	}
}

func TestQPStats(t *testing.T) {
	a, b, qa, qb := newPair(t)
	qb.PostRecv(b.dram.Base+256, 64, 1)
	qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 100})
	qa.PostSend(WQE{Op: OpSend, LocalAddr: a.dram.Base, Len: 50})
	qa.Doorbell(0)
	st := qa.Stats()
	if st.Writes != 1 || st.Sends != 1 || st.BytesOut != 150 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestWriteLatencyScalesWithSize(t *testing.T) {
	a, b, qa, _ := newPair(t)
	qa.PostSend(WQE{Op: OpWrite, LocalAddr: a.dram.Base, RemoteAddr: b.dram.Base, Len: 64})
	small := qa.Doorbell(0)[0].RemoteVisible

	a2, b2, qa2, _ := newPair(t)
	_, _ = a2, b2
	qa2.PostSend(WQE{Op: OpWrite, LocalAddr: a2.dram.Base, RemoteAddr: b2.dram.Base, Len: 64 * 1024})
	big := qa2.Doorbell(0)[0].RemoteVisible
	if big <= small {
		t.Fatalf("64KB write (%v) must take longer than 64B (%v)", big, small)
	}
}
