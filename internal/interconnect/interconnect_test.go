package interconnect

import (
	"strings"
	"testing"
	"testing/quick"

	"rambda/internal/fault"
	"rambda/internal/sim"
)

func TestPCIeDMAFraming(t *testing.T) {
	// 1 GB/s, no propagation: 256B payload + 24B header = 280 wire bytes
	// = 280ns.
	p := NewPCIe("pcie", 1e9, 0, 0)
	done := p.DMA(0, 256)
	if done != 280*sim.Nanosecond {
		t.Fatalf("done=%v, want 280ns", done)
	}
	// 257B => 2 TLPs => 257 + 48 header bytes.
	p2 := NewPCIe("pcie", 1e9, 0, 0)
	done = p2.DMA(0, 257)
	if done != 305*sim.Nanosecond {
		t.Fatalf("done=%v, want 305ns", done)
	}
}

func TestPCIePropagationAndMMIO(t *testing.T) {
	p := NewPCIe("pcie", 16e9, 300*sim.Nanosecond, 400*sim.Nanosecond)
	done := p.DMA(0, 64)
	if done <= 300*sim.Nanosecond {
		t.Fatalf("DMA must include propagation, got %v", done)
	}
	m := p.MMIOWrite(0)
	if m < 400*sim.Nanosecond {
		t.Fatalf("MMIO must include fence cost, got %v", m)
	}
}

func TestCCLinkCachelineGranularity(t *testing.T) {
	l := NewCCLink("upi", 20.8e9, 100*sim.Nanosecond)
	// A 4-byte pointer-buffer update still moves a whole line.
	l.Transfer(0, 4)
	if l.Resource().Bytes() != 64 {
		t.Fatalf("charged %d bytes, want 64", l.Resource().Bytes())
	}
	l.Transfer(0, 65)
	if l.Resource().Bytes() != 64+128 {
		t.Fatalf("charged %d bytes, want 192 total", l.Resource().Bytes())
	}
}

func TestCCLinkBandwidthCeiling(t *testing.T) {
	l := NewCCLink("upi", 20.8e9, 0)
	var done sim.Time
	const n = 10000
	for i := 0; i < n; i++ {
		done = l.Transfer(done, 64)
	}
	gbps := float64(n*64) / done.Seconds() / 1e9
	if gbps < 20.5 || gbps > 21.1 {
		t.Fatalf("achieved %.2f GB/s, want ~20.8", gbps)
	}
}

func TestNetLinkPacketization(t *testing.T) {
	n := NewNetLink("net", 1e9, 0)
	// 100B payload: 1 packet, 190 wire bytes => 190ns at 1GB/s.
	done := n.Send(0, 100)
	if done != 190*sim.Nanosecond {
		t.Fatalf("done=%v, want 190ns", done)
	}
	// 5000B: 2 packets.
	n2 := NewNetLink("net", 1e9, 0)
	done = n2.Send(0, 5000)
	if done != 5180*sim.Nanosecond {
		t.Fatalf("done=%v, want 5180ns", done)
	}
	// Zero-byte message still costs a header.
	n3 := NewNetLink("net", 1e9, 0)
	if got := n3.Send(0, 0); got != 90*sim.Nanosecond {
		t.Fatalf("empty send=%v, want 90ns", got)
	}
}

func TestNetLinkOneWayLatency(t *testing.T) {
	n := NewNetLink("net", 3.125e9, 2*sim.Microsecond) // 25 Gbps
	done := n.Send(0, 64)
	if done < 2*sim.Microsecond || done > 3*sim.Microsecond {
		t.Fatalf("one-way=%v, want ~2us", done)
	}
}

func TestDuplexIndependentDirections(t *testing.T) {
	d := NewDuplex("net", 1e9, 0)
	// Saturating a->b must not delay b->a.
	var last sim.Time
	for i := 0; i < 100; i++ {
		last = d.AtoB.Send(0, 4096)
	}
	back := d.BtoA.Send(0, 64)
	if back >= last {
		t.Fatal("reverse direction must be independent")
	}
}

func TestPCIeDMAMonotoneInBytes(t *testing.T) {
	f := func(a, b uint16) bool {
		small, big := int(a), int(b)
		if small > big {
			small, big = big, small
		}
		p1 := NewPCIe("p", 16e9, 300*sim.Nanosecond, 0)
		p2 := NewPCIe("p", 16e9, 300*sim.Nanosecond, 0)
		return p1.DMA(0, small) <= p2.DMA(0, big)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLossInjectionRetransmits(t *testing.T) {
	n := NewNetLink("lossy", 3.125e9, 1500*sim.Nanosecond)
	n.AttachFaults(fault.New(fault.Plan{Seed: 1, Links: []fault.LinkRule{
		{Link: "lossy", Drop: 0.3},
	}}))
	var worst sim.Time
	var clean int
	for i := 0; i < 500; i++ {
		done := n.Send(sim.Time(i)*50*sim.Microsecond, 64)
		lat := done - sim.Time(i)*50*sim.Microsecond
		if lat > worst {
			worst = lat
		}
		if lat < 2*sim.Microsecond {
			clean++
		}
	}
	if n.Lost() == 0 {
		t.Fatal("no losses at 30% rate")
	}
	// Redeliveries must show up as >= one timeout of tail inflation.
	if worst < defaultRedeliver {
		t.Fatalf("worst=%v, want >= one redelivery timeout", worst)
	}
	// Most packets still arrive clean.
	if clean < 250 {
		t.Fatalf("clean=%d of 500, want majority", clean)
	}
}

func TestLossFreeLinkUnchanged(t *testing.T) {
	a := NewNetLink("a", 1e9, 0)
	b := NewNetLink("b", 1e9, 0)
	b.AttachFaults(fault.New(fault.Plan{Seed: 1, Links: []fault.LinkRule{{Link: "b", Drop: 0}}}))
	if b.Faults() != nil {
		t.Fatal("an all-zero rule must keep the nil injector")
	}
	if a.Send(0, 100) != b.Send(0, 100) {
		t.Fatal("zero drop rate must not change timing")
	}
}

func TestTransmitCleanMatchesSend(t *testing.T) {
	a := NewNetLink("clean-a", 3.125e9, 2*sim.Microsecond)
	b := NewNetLink("clean-b", 3.125e9, 2*sim.Microsecond)
	for _, bytes := range []int{0, 64, 4096, 70000} {
		out := a.Transmit(0, bytes)
		if out.Dropped || out.Corrupted || out.Duplicates != 0 {
			t.Fatalf("clean transmit perturbed: %+v", out)
		}
		if got := b.Send(0, bytes); got != out.Arrive {
			t.Fatalf("Transmit(%d)=%v, Send=%v — clean paths must agree", bytes, out.Arrive, got)
		}
	}
}

func TestTransmitConsultsPlanPerPacket(t *testing.T) {
	inj := fault.New(fault.Plan{Seed: 5, Links: []fault.LinkRule{
		{Link: "faulty", Drop: 0.5},
	}})
	n := NewNetLink("faulty", 1e9, 0)
	n.AttachFaults(inj)
	// 10 MTUs per transmit => 10 per-packet draws each.
	const msgs, pktsPer = 200, 10
	dropped := 0
	for i := 0; i < msgs; i++ {
		if n.Transmit(sim.Time(i)*sim.Millisecond, pktsPer*4096).Dropped {
			dropped++
		}
	}
	st := n.Faults().Stats()
	if st.Packets != msgs*pktsPer {
		t.Fatalf("per-packet draws=%d, want %d", st.Packets, msgs*pktsPer)
	}
	// At 50% per packet essentially every 10-packet burst loses one.
	if dropped < msgs*9/10 {
		t.Fatalf("dropped bursts=%d of %d", dropped, msgs)
	}
}

func TestTransmitDuplicatesAndSpikesCostTime(t *testing.T) {
	mk := func(rule fault.LinkRule) *NetLink {
		rule.Link = "l"
		n := NewNetLink("l", 1e9, 0)
		n.AttachFaults(fault.New(fault.Plan{Seed: 9, Links: []fault.LinkRule{rule}}))
		return n
	}
	clean := NewNetLink("l", 1e9, 0)
	base := clean.Transmit(0, 1000).Arrive

	dup := mk(fault.LinkRule{Duplicate: 1.0})
	if out := dup.Transmit(0, 1000); out.Duplicates != 1 || out.Arrive <= base {
		t.Fatalf("duplicate outcome %+v, base %v", out, base)
	}
	spiky := mk(fault.LinkRule{DelaySpike: 1.0, Spike: 30 * sim.Microsecond})
	if out := spiky.Transmit(0, 1000); out.Arrive < base+30*sim.Microsecond {
		t.Fatalf("spike not applied: %v vs base %v", out.Arrive, base)
	}
}

func TestSendSelfHealsPlanDrops(t *testing.T) {
	n := NewNetLink("heal", 1e9, 0)
	n.AttachFaults(fault.New(fault.Plan{Seed: 2, Links: []fault.LinkRule{
		{Link: "heal", Drop: 0.4},
	}}))
	var worst sim.Time
	for i := 0; i < 300; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		lat := n.Send(at, 64) - at
		if lat > worst {
			worst = lat
		}
	}
	if n.Lost() == 0 {
		t.Fatal("no redeliveries at 40% drop")
	}
	if worst < 20*sim.Microsecond {
		t.Fatalf("worst=%v, want >= one redelivery timeout", worst)
	}
}

func TestSendPanicsWhenPlanStarvesRedelivery(t *testing.T) {
	n := NewNetLink("dead", 1e9, 0)
	n.AttachFaults(fault.New(fault.Plan{Seed: 3, Links: []fault.LinkRule{
		{Link: "dead", Drop: 1.0},
	}}))
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "fault plan starves Send callers") {
			t.Fatalf("recovered %v, want the starvation panic", r)
		}
		if n.Lost() != sendRedeliverCap {
			t.Fatalf("lost=%d before the panic, want the cap %d", n.Lost(), sendRedeliverCap)
		}
	}()
	n.Send(0, 64)
}

func TestAttachFaultsNoRuleKeepsNilFastPath(t *testing.T) {
	n := NewNetLink("unlisted", 1e9, 0)
	n.AttachFaults(fault.New(fault.Plan{Seed: 1, Links: []fault.LinkRule{
		{Link: "other", Drop: 0.9},
	}}))
	if n.Faults() != nil {
		t.Fatal("link without a rule must keep the nil injector")
	}
	clean := NewNetLink("unlisted", 1e9, 0)
	if n.Send(0, 5000) != clean.Send(0, 5000) {
		t.Fatal("unlisted link timing changed")
	}
}
