package ringbuf

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"rambda/internal/coherence"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// memTransport is a zero-latency functional transport for unit tests.
type memTransport struct {
	space *memspace.Space
	last  sim.Time
}

func (m *memTransport) Deliver(now sim.Time, entryAddr memspace.Addr, entry []byte, ptrAddr memspace.Addr, ptrVal uint32) sim.Time {
	m.space.Write(entryAddr, entry)
	if ptrAddr != 0 {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], ptrVal)
		m.space.Write(ptrAddr, b[:])
	}
	m.last = now + sim.Microsecond
	return m.last
}

func TestLayoutGeometry(t *testing.T) {
	l := NewLayout(memspace.Range{Base: 0x1000, Size: 1024}, 8)
	if l.EntrySize != 128 || l.MaxPayload() != 123 {
		t.Fatalf("entrySize=%d maxPayload=%d", l.EntrySize, l.MaxPayload())
	}
	if l.EntryAddr(0) != 0x1000 || l.EntryAddr(1) != 0x1080 {
		t.Fatal("entry addressing")
	}
	if l.EntryAddr(8) != l.EntryAddr(0) {
		t.Fatal("entry addressing must wrap")
	}
}

func TestLayoutPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero entries", func() { NewLayout(memspace.Range{Size: 64}, 0) })
	mustPanic("tiny entries", func() { NewLayout(memspace.Range{Size: 16}, 4) })
	l := NewLayout(memspace.Range{Base: 0x1000, Size: 1024}, 8)
	mustPanic("oversize payload", func() { l.Encode(make([]byte, 124)) })
}

func TestRingReadResetCycle(t *testing.T) {
	space := memspace.New()
	reg := space.Alloc("ring", 1024, memspace.KindDRAM)
	ring := NewRing(space, NewLayout(reg.Range, 8))
	if _, ok := ring.ReadEntryAppend(nil, 0); ok {
		t.Fatal("fresh ring must be empty")
	}
	space.Write(ring.EntryAddr(3), ring.Encode([]byte("msg")))
	got, ok := ring.ReadEntryAppend(nil, 3)
	if !ok || string(got) != "msg" {
		t.Fatalf("got %q ok=%v", got, ok)
	}
	ring.ResetEntry(3)
	if _, ok := ring.ReadEntryAppend(nil, 3); ok {
		t.Fatal("reset entry must be invalid")
	}
}

func newConnPair(t *testing.T, entries int, usePtr bool) (*Conn, *ServerConn, *PointerBuffer, *memspace.Space) {
	t.Helper()
	space := memspace.New() // single space standing in for both machines
	reqReg := space.Alloc("req", uint64(entries*128), memspace.KindDRAM)
	respReg := space.Alloc("resp", uint64(entries*128), memspace.KindDRAM)
	tr := &memTransport{space: space}

	var pb *PointerBuffer
	var ptrAddr memspace.Addr
	if usePtr {
		preg := space.Alloc("ptr", 64, memspace.KindDRAM)
		pb = NewPointerBuffer(space, preg.Range, 16)
		ptrAddr = pb.Addr(0)
	}
	reqLayout := NewLayout(reqReg.Range, entries)
	respLayout := NewLayout(respReg.Range, entries)
	client := NewConn(reqLayout, NewRing(space, respLayout), tr, ptrAddr)
	server := NewServerConn(NewRing(space, reqLayout), respLayout, tr)
	return client, server, pb, space
}

func TestRequestResponseRoundTrip(t *testing.T) {
	client, server, _, _ := newConnPair(t, 8, false)

	at := client.Send(0, []byte("get k1"))
	if at <= 0 {
		t.Fatal("send must advance time")
	}
	payload, idx, ok := server.NextRequest()
	if !ok || string(payload) != "get k1" {
		t.Fatalf("server saw %q ok=%v", payload, ok)
	}
	server.Complete(idx)
	server.Respond(at, []byte("v1"))

	resp, ok := client.PollResponse()
	if !ok || string(resp) != "v1" {
		t.Fatalf("client saw %q ok=%v", resp, ok)
	}
	if client.Outstanding() != 0 {
		t.Fatal("credit not returned")
	}
	if client.Sent() != 1 || client.Received() != 1 || server.Served() != 1 {
		t.Fatal("counters")
	}
}

func TestCreditFlowControl(t *testing.T) {
	client, server, _, _ := newConnPair(t, 4, false)
	for i := 0; i < 4; i++ {
		if !client.CanSend() {
			t.Fatalf("credit exhausted at %d", i)
		}
		client.Send(0, []byte{byte(i)})
	}
	if client.CanSend() {
		t.Fatal("ring full: CanSend must be false")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Send past credit must panic")
			}
		}()
		client.Send(0, []byte("x"))
	}()
	// Drain one and the credit returns.
	_, idx, _ := server.NextRequest()
	server.Complete(idx)
	server.Respond(0, []byte("r"))
	if _, ok := client.PollResponse(); !ok {
		t.Fatal("response missing")
	}
	if !client.CanSend() {
		t.Fatal("credit must return after response")
	}
}

func TestOrderPreservedAcrossWrap(t *testing.T) {
	client, server, _, _ := newConnPair(t, 4, false)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			client.Send(0, []byte{byte(round), byte(i)})
		}
		for i := 0; i < 4; i++ {
			payload, idx, ok := server.NextRequest()
			if !ok {
				t.Fatalf("round %d missing request %d", round, i)
			}
			if payload[0] != byte(round) || payload[1] != byte(i) {
				t.Fatalf("out of order: %v", payload)
			}
			server.Complete(idx)
			server.Respond(0, payload)
		}
		for i := 0; i < 4; i++ {
			resp, ok := client.PollResponse()
			if !ok || resp[1] != byte(i) {
				t.Fatalf("response order: %v ok=%v", resp, ok)
			}
		}
	}
}

func TestOutOfOrderCompletePanics(t *testing.T) {
	client, server, _, _ := newConnPair(t, 4, false)
	client.Send(0, []byte("a"))
	client.Send(0, []byte("b"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	server.Complete(1) // head is 0
}

func TestPointerBufferIncrements(t *testing.T) {
	client, _, pb, _ := newConnPair(t, 8, true)
	for i := 1; i <= 5; i++ {
		client.Send(0, []byte("x"))
		if got := pb.Read(0); got != uint32(i) {
			t.Fatalf("pointer slot = %d after %d sends", got, i)
		}
	}
	if slot, ok := pb.SlotFor(pb.Addr(3)); !ok || slot != 3 {
		t.Fatal("SlotFor")
	}
	if _, ok := pb.SlotFor(0x1); ok {
		t.Fatal("SlotFor outside range")
	}
}

func TestPointerBufferBounds(t *testing.T) {
	space := memspace.New()
	reg := space.Alloc("ptr", 64, memspace.KindDRAM)
	mustPanic := func(f func()) {
		defer func() { recover() }()
		f()
		t.Fatal("expected panic")
	}
	mustPanic(func() { NewPointerBuffer(space, reg.Range, 17) })
	pb := NewPointerBuffer(space, reg.Range, 16)
	mustPanic(func() { pb.Addr(16) })
	if pb.Slots() != 16 {
		t.Fatal("slots")
	}
}

func TestLocalTransportTriggersCoherence(t *testing.T) {
	space := memspace.New()
	reg := space.Alloc("req", 1024, memspace.KindDRAM)
	mem := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("dram", 6, 120e9, 90*sim.Nanosecond),
		LLC:   memdev.NewLLC("llc", 300e9, 20*sim.Nanosecond),
	}
	coh := coherence.NewDomain()
	signals := 0
	coh.SetSnooper(coherence.AgentAccel, func(coherence.Signal) { signals++ })
	coh.Pin(coherence.AgentAccel, reg.Range)

	tr := &LocalTransport{Space: space, Mem: mem, Coh: coh, Agent: coherence.AgentCPU}
	l := NewLayout(reg.Range, 8)
	done := tr.Deliver(0, l.EntryAddr(0), l.Encode([]byte("intra")), 0, 0)
	if done <= 0 {
		t.Fatal("local delivery must charge LLC time")
	}
	if signals != 1 {
		t.Fatalf("coherence signals=%d, want 1", signals)
	}
	ring := NewRing(space, l)
	payload, ok := ring.ReadEntryAppend(nil, 0)
	if !ok || string(payload) != "intra" {
		t.Fatalf("payload=%q", payload)
	}
}

func TestConnPropertySendPollConservation(t *testing.T) {
	// Property: for any interleaving of sends (when credit allows) and
	// full server drains, outstanding == sent - received and never
	// exceeds ring size.
	f := func(ops []bool) bool {
		client, server, _, _ := newConnPair(t, 4, false)
		for _, send := range ops {
			if send && client.CanSend() {
				client.Send(0, []byte("m"))
			} else {
				if payload, idx, ok := server.NextRequest(); ok {
					server.Complete(idx)
					server.Respond(0, payload)
					if _, ok := client.PollResponse(); !ok {
						return false
					}
				}
			}
			if client.Outstanding() < 0 || client.Outstanding() > 4 {
				return false
			}
			if int64(client.Outstanding()) != client.Sent()-client.Received() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	l := NewLayout(memspace.Range{Base: 0x1000, Size: 8192}, 8)
	f := func(payload []byte) bool {
		if len(payload) > l.MaxPayload() {
			payload = payload[:l.MaxPayload()]
		}
		e := l.Encode(payload)
		if e[0] != 1 {
			return false
		}
		n := binary.LittleEndian.Uint32(e[1:5])
		return int(n) == len(payload) && bytes.Equal(e[HeaderBytes:], payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
