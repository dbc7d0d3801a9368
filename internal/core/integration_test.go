package core

import (
	"encoding/binary"
	"testing"

	"rambda/internal/fault"
	"rambda/internal/hostcpu"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// TestManyClientsInterleaved drives every connection concurrently and
// checks functional integrity under timing interleaving: each response
// must carry its own request's payload.
func TestManyClientsInterleaved(t *testing.T) {
	sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase})
	cm := NewMachine(MachineConfig{Name: "cli"})
	ConnectMachines(sm, cm)
	opts := smallOpts()
	opts.Connections = 8
	s := NewServer(sm, echoApp(), opts)
	clients := make([]*Client, 8)
	for i := range clients {
		clients[i] = ConnectClient(cm, s, i)
	}
	var mismatches int
	res := sim.ClosedLoop{Clients: 32, PerClient: 40, Stagger: 30 * sim.Nanosecond}.Run(
		func(id int, issue sim.Time) sim.Time {
			payload := make([]byte, 8)
			binary.LittleEndian.PutUint64(payload, uint64(id)<<32|uint64(issue)&0xFFFFFFFF)
			resp, done := clients[id%8].Call(issue, payload)
			if string(resp[:5]) != "echo:" || binary.LittleEndian.Uint64(resp[5:]) != binary.LittleEndian.Uint64(payload) {
				mismatches++
			}
			return done
		})
	if mismatches != 0 {
		t.Fatalf("%d responses carried wrong payloads", mismatches)
	}
	if res.Requests != 32*40 {
		t.Fatalf("requests=%d", res.Requests)
	}
	if s.Served() != 32*40 {
		t.Fatalf("served=%d", s.Served())
	}
}

// TestNVMRingsEndToEnd runs the server with NVM-resident rings under
// adaptive DDIO and checks that the DMA path kept the write
// amplification down.
func TestNVMRingsEndToEnd(t *testing.T) {
	sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase, WithNVM: true})
	cm := NewMachine(MachineConfig{Name: "cli"})
	ConnectMachines(sm, cm)
	opts := smallOpts()
	opts.RingKind = memspace.KindNVM
	s := NewServer(sm, echoApp(), opts)
	c := ConnectClient(cm, s, 0)
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		resp, done := c.Call(now, []byte{byte(i)})
		if resp[5] != byte(i) {
			t.Fatalf("payload %d corrupted", i)
		}
		now = done
	}
	if amp := sm.Mem.NVM.WriteAmplification(); amp > 8 {
		t.Fatalf("adaptive DDIO amplification=%v, want small", amp)
	}
	if sm.Mem.LLC.MemoryBypassBytes() == 0 {
		t.Fatal("NVM ring writes must bypass the cache (TPH clear)")
	}
	if s.Served() != 20 {
		t.Fatalf("served=%d", s.Served())
	}
}

// TestAlwaysOnDDIOAmplifiesNVMRings is the inverse: DDIO forced on
// makes ring writes amplify.
func TestAlwaysOnDDIOAmplifiesNVMRings(t *testing.T) {
	run := func(ddio bool) float64 {
		sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase, WithNVM: true, DDIOEnabled: ddio})
		cm := NewMachine(MachineConfig{Name: "cli"})
		ConnectMachines(sm, cm)
		opts := smallOpts()
		opts.RingKind = memspace.KindNVM
		s := NewServer(sm, echoApp(), opts)
		c := ConnectClient(cm, s, 0)
		now := sim.Time(0)
		for i := 0; i < 20; i++ {
			_, now = c.Call(now, []byte{byte(i)})
		}
		return sm.Mem.NVM.WriteAmplification()
	}
	adaptive, always := run(false), run(true)
	if always <= adaptive {
		t.Fatalf("DDIO-on amplification (%v) must exceed adaptive (%v)", always, adaptive)
	}
}

// TestServeWithoutRequestPanics guards the framework invariant.
func TestServeWithoutRequestPanics(t *testing.T) {
	sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase})
	s := NewServer(sm, echoApp(), smallOpts())
	ConnectLocalClient(s, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Serve(0, 0)
}

// TestConnectionIndexBounds guards dial-time validation.
func TestConnectionIndexBounds(t *testing.T) {
	sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase})
	cm := NewMachine(MachineConfig{Name: "cli"})
	ConnectMachines(sm, cm)
	s := NewServer(sm, echoApp(), smallOpts())
	for _, idx := range []int{-1, smallOpts().Connections} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("index %d accepted", idx)
				}
			}()
			ConnectClient(cm, s, idx)
		}()
	}
}

// TestServerRequiresAccelerator guards construction.
func TestServerRequiresAccelerator(t *testing.T) {
	m := NewMachine(MachineConfig{Name: "plain"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewServer(m, echoApp(), smallOpts())
}

// TestCpollSignalsPerRequest confirms the notification accounting: one
// coherence signal (pointer-line write) per request once harvests
// re-arm the line.
func TestCpollSignalsPerRequest(t *testing.T) {
	sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase})
	cm := NewMachine(MachineConfig{Name: "cli"})
	ConnectMachines(sm, cm)
	s := NewServer(sm, echoApp(), smallOpts())
	c := ConnectClient(cm, s, 0)
	now := sim.Time(0)
	const n = 25
	for i := 0; i < n; i++ {
		_, now = c.Call(now, []byte{1})
	}
	if got := s.Checker().Signals(); got != n {
		t.Fatalf("signals=%d for %d serial requests", got, n)
	}
	if got := s.Checker().Harvested(); got != n {
		t.Fatalf("harvested=%d", got)
	}
}

// TestThroughputOrdering checks the saturation behaviour the paper
// reports: on a trivial compute-free echo the many-core CPU baseline
// out-runs the 400 MHz fabric (RAMBDA is not magic), while the
// accelerator still sustains multi-Mops with the full cpoll + SQ
// handler path engaged.
func TestThroughputOrdering(t *testing.T) {
	// RAMBDA echo.
	sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase})
	cm := NewMachine(MachineConfig{Name: "cli"})
	ConnectMachines(sm, cm)
	opts := smallOpts()
	opts.Connections = 8
	opts.RingEntries = 64
	s := NewServer(sm, echoApp(), opts)
	clients := make([]*Client, 8)
	for i := range clients {
		clients[i] = ConnectClient(cm, s, i)
	}
	r1 := sim.ClosedLoop{Clients: 8 * 32, PerClient: 30, Stagger: 40 * sim.Nanosecond}.Run(
		func(id int, issue sim.Time) sim.Time {
			_, done := clients[id%8].Call(issue, []byte("abcd"))
			return done
		})

	// CPU echo.
	sm2 := NewMachine(MachineConfig{Name: "srv2"})
	cm2 := NewMachine(MachineConfig{Name: "cli2"})
	ConnectMachines(sm2, cm2)
	copts := DefaultCPUServerOptions()
	copts.Connections = 8
	s2 := NewCPUServer(sm2, func(req []byte) ([]byte, hostcpu.Work) {
		return append([]byte("echo:"), req...), hostcpu.Work{Cycles: 300}
	}, copts)
	clients2 := make([]*CPUClient, 8)
	for i := range clients2 {
		clients2[i] = ConnectCPUClient(cm2, s2, i)
	}
	r2 := sim.ClosedLoop{Clients: 8 * 32, PerClient: 30, Stagger: 40 * sim.Nanosecond}.Run(
		func(id int, issue sim.Time) sim.Time {
			_, done := clients2[id%8].Call(issue, []byte("abcd"))
			return done
		})

	if r1.Throughput < 5e6 {
		t.Fatalf("RAMBDA echo only %.1f Mops — the accelerator pipeline regressed", r1.Throughput/1e6)
	}
	if r2.Throughput < r1.Throughput {
		t.Fatalf("a 20-core CPU (%v) should beat the 400MHz fabric (%v) on compute-free echo",
			r2.Throughput, r1.Throughput)
	}
}

// TestLossyFabricKeepsCorrectnessInflatesTail attaches a fault plan
// that drops RoCE packets in both directions between the machines:
// every request still completes with the right payload (RC
// retransmission), while tail latency grows by RTOs.
func TestLossyFabricKeepsCorrectnessInflatesTail(t *testing.T) {
	run := func(loss float64) (*sim.Histogram, bool) {
		sm := NewMachine(MachineConfig{Name: "srv", Variant: AccelBase})
		cm := NewMachine(MachineConfig{Name: "cli"})
		d := ConnectMachines(sm, cm)
		d.AttachFaults(fault.New(fault.Plan{Seed: 9, Links: []fault.LinkRule{
			{Link: d.AtoB.Name(), Drop: loss},
			{Link: d.BtoA.Name(), Drop: loss},
		}}))
		s := NewServer(sm, echoApp(), smallOpts())
		c := ConnectClient(cm, s, 0)
		h := sim.NewHistogram(0)
		now := sim.Time(0)
		okAll := true
		for i := 0; i < 200; i++ {
			resp, done := c.Call(now, []byte{byte(i)})
			if len(resp) != 6 || resp[5] != byte(i) {
				okAll = false
			}
			h.Record(done - now)
			now = done
		}
		return h, okAll
	}
	clean, okClean := run(0)
	lossy, okLossy := run(0.05)
	if !okClean || !okLossy {
		t.Fatal("payload corruption — reliability broken")
	}
	if lossy.P99() < clean.P99()+15*sim.Microsecond {
		t.Fatalf("loss must inflate p99: clean=%v lossy=%v", clean.P99(), lossy.P99())
	}
	if lossy.P50() > clean.P50()*3 {
		t.Fatalf("median should stay near clean: %v vs %v", lossy.P50(), clean.P50())
	}
}
