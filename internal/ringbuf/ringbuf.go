// Package ringbuf implements RAMBDA's unified communication abstraction
// (paper Sec. III-A): lockless request/response ring buffer pairs used
// identically for inter-machine communication (filled by one-sided RDMA
// writes) and intra-machine CPU↔accelerator communication (filled by
// coherent loads/stores). Flow control is credit-based: the producer
// tracks the request ring's tail and the response ring's head locally
// and never overruns in-flight entries, so every message needs exactly
// one network trip and no atomics.
//
// The package also provides the pointer buffer (paper Fig. 3c): a dense
// array of 4-byte monotonically increasing counters, one per ring, that
// serves as a compact cpoll region when rings are too large to pin.
package ringbuf

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// HeaderBytes is the per-entry framing: 1 valid byte + 4 length bytes.
const HeaderBytes = 5

// Transport delivers a message (and optionally a pointer-buffer update)
// into a target machine's memory. The RDMA implementation posts the two
// writes as contiguous WQEs under one batched doorbell (paper
// Sec. III-B); the local implementation is a coherent store.
type Transport interface {
	// Deliver writes entry at entryAddr and, when ptrAddr is nonzero,
	// the 4-byte little-endian ptrVal at ptrAddr. It returns the time
	// at which the writes are visible at the destination.
	Deliver(now sim.Time, entryAddr memspace.Addr, entry []byte, ptrAddr memspace.Addr, ptrVal uint32) sim.Time
}

// Layout describes a ring's placement so a remote producer can compute
// entry addresses without touching the owner's memory (the descriptors
// are exchanged at connection setup, like rkeys).
type Layout struct {
	Range      memspace.Range
	NumEntries int
	EntrySize  int
}

// NewLayout divides a region into fixed-size entries.
func NewLayout(r memspace.Range, entries int) Layout {
	if entries <= 0 {
		panic("ringbuf: entries must be positive")
	}
	es := int(r.Size) / entries
	if es <= HeaderBytes {
		panic(fmt.Sprintf("ringbuf: entry size %d too small for header", es))
	}
	return Layout{Range: r, NumEntries: entries, EntrySize: es}
}

// EntryAddr returns the address of entry i.
func (l Layout) EntryAddr(i int) memspace.Addr {
	return l.Range.Base + memspace.Addr(i%l.NumEntries*l.EntrySize)
}

// MaxPayload is the largest message an entry can carry.
func (l Layout) MaxPayload() int { return l.EntrySize - HeaderBytes }

// Encode frames a payload into entry wire format in a fresh buffer.
func (l Layout) Encode(payload []byte) []byte {
	return l.AppendEncode(nil, payload)
}

// AppendEncode frames a payload onto dst and returns the extended
// slice; reusing the returned buffer (re-sliced to [:0]) makes
// steady-state framing allocation-free.
func (l Layout) AppendEncode(dst, payload []byte) []byte {
	if len(payload) > l.MaxPayload() {
		panic(fmt.Sprintf("ringbuf: payload %d exceeds max %d", len(payload), l.MaxPayload()))
	}
	var hdr [HeaderBytes]byte
	hdr[0] = 1
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Ring is the owner-side accessor for a ring living in local memory.
type Ring struct {
	Layout
	space *memspace.Space
}

// NewRing builds the owner-side view of a ring.
func NewRing(space *memspace.Space, l Layout) *Ring {
	return &Ring{Layout: l, space: space}
}

// EntryValid reports whether entry i holds an unconsumed message,
// without touching the payload — the allocation-free validity probe
// notification paths use.
func (r *Ring) EntryValid(i int) bool {
	return r.space.Slice(r.EntryAddr(i), 1)[0] != 0
}

// ReadEntryAppend appends the payload at index i onto dst, returning
// the extended slice. Reusing the returned buffer across polls makes
// the steady-state consume path allocation-free.
func (r *Ring) ReadEntryAppend(dst []byte, i int) ([]byte, bool) {
	addr := r.EntryAddr(i)
	hdr := r.space.Slice(addr, HeaderBytes)
	if hdr[0] == 0 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:5]))
	if n > r.MaxPayload() {
		panic(fmt.Sprintf("ringbuf: corrupt entry %d length %d", i, n))
	}
	return append(dst, r.space.Slice(addr+HeaderBytes, n)...), true
}

// ResetEntry clears entry i's valid byte (paper: the consumer "reset[s]
// the buffer entry to 0" after processing, which also reacquires the
// cacheline for cpoll).
func (r *Ring) ResetEntry(i int) {
	r.space.Slice(r.EntryAddr(i), 1)[0] = 0
}

// PointerBuffer is the dense cpoll region for large-scale setups: entry
// i holds a little-endian uint32 counter of messages ever written to
// ring i (paper Fig. 3c). Producers increment it alongside each message
// write; the cpoll checker snoops only this compact array.
type PointerBuffer struct {
	space *memspace.Space
	r     memspace.Range
	n     int
}

// PtrEntryBytes is the size of one pointer-buffer slot.
const PtrEntryBytes = 4

// NewPointerBuffer wraps a region as a pointer buffer with n slots.
func NewPointerBuffer(space *memspace.Space, r memspace.Range, n int) *PointerBuffer {
	if uint64(n*PtrEntryBytes) > r.Size {
		panic("ringbuf: pointer buffer region too small")
	}
	return &PointerBuffer{space: space, r: r, n: n}
}

// Range returns the region to register as the cpoll region.
func (p *PointerBuffer) Range() memspace.Range { return p.r }

// Slots returns the number of slots.
func (p *PointerBuffer) Slots() int { return p.n }

// Addr returns the address of slot i.
func (p *PointerBuffer) Addr(i int) memspace.Addr {
	if i < 0 || i >= p.n {
		panic("ringbuf: pointer buffer slot out of range")
	}
	return p.r.Base + memspace.Addr(i*PtrEntryBytes)
}

// Read returns slot i's counter.
func (p *PointerBuffer) Read(i int) uint32 {
	return binary.LittleEndian.Uint32(p.space.Slice(p.Addr(i), PtrEntryBytes))
}

// SlotFor maps an address inside the buffer back to its slot index.
func (p *PointerBuffer) SlotFor(addr memspace.Addr) (int, bool) {
	if !p.r.Contains(addr) {
		return 0, false
	}
	return int(addr-p.r.Base) / PtrEntryBytes, true
}

// Conn is the producer (client) side of a request/response pair: it
// writes requests into the server-side request ring through a Transport
// and consumes responses from its local response ring.
type Conn struct {
	Req  Layout // request ring in the server's memory
	Resp *Ring  // response ring in local memory

	t Transport

	// Pointer-buffer coupling (nil ptr means direct-pinned cpoll mode).
	ptrAddr memspace.Addr
	ptrVal  uint32

	tail        int // next request entry to write
	head        int // next response entry to consume
	outstanding int

	sent, received int64

	// Reusable framing/consume buffers: entryBuf backs Send's framed
	// entry (the Transport copies it into the destination space before
	// returning), respBuf backs the payload PollResponse returns — that
	// slice is only valid until the next PollResponse on this Conn.
	entryBuf, respBuf []byte

	// tr, when attached, wraps each Send in a StageRing span (the NIC
	// and wire spans the transport emits nest inside it); nil is the
	// uninstrumented fast path.
	tr *obs.Trace
}

// NewConn builds a client connection. ptrAddr is the server-side
// pointer-buffer slot for this connection's request ring, or 0 when the
// ring itself is the cpoll region.
func NewConn(req Layout, resp *Ring, t Transport, ptrAddr memspace.Addr) *Conn {
	return &Conn{Req: req, Resp: resp, t: t, ptrAddr: ptrAddr}
}

// SetTrace attaches (or with nil detaches) a span recorder; Send then
// records a StageRing span around each delivery.
func (c *Conn) SetTrace(tr *obs.Trace) { c.tr = tr }

// RegisterMetrics registers the connection's ring-depth gauge on reg
// under the given name prefix.
func (c *Conn) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".outstanding", func() float64 { return float64(c.outstanding) })
}

// CanSend reports whether a credit is available (paper: "Only if the
// request buffer's tail is behind the response buffer's head can the
// client issue a request").
func (c *Conn) CanSend() bool { return c.outstanding < c.Req.NumEntries }

// Outstanding returns in-flight request count.
func (c *Conn) Outstanding() int { return c.outstanding }

// Send writes a request into the server's request ring, returning the
// time the message is visible at the server. It panics when flow
// control would be violated — callers must check CanSend.
func (c *Conn) Send(now sim.Time, payload []byte) sim.Time {
	if !c.CanSend() {
		panic("ringbuf: send without credit")
	}
	if c.ptrAddr != 0 && len(payload) > c.Req.MaxPayload()-PtrEntryBytes {
		// The UMR-combined write needs headroom in the entry slot for
		// the interleaved pointer bytes.
		panic("ringbuf: payload too large for pointer-buffer mode")
	}
	c.entryBuf = c.Req.AppendEncode(c.entryBuf[:0], payload)
	entry := c.entryBuf
	addr := c.Req.EntryAddr(c.tail)
	var pa memspace.Addr
	if c.ptrAddr != 0 {
		c.ptrVal++
		pa = c.ptrAddr
	}
	var sp obs.SpanID
	if c.tr != nil {
		sp = c.tr.Push("ring-send", obs.StageRing, now)
	}
	done := c.t.Deliver(now, addr, entry, pa, c.ptrVal)
	if c.tr != nil {
		c.tr.Pop(sp, done)
	}
	c.tail = (c.tail + 1) % c.Req.NumEntries
	c.outstanding++
	c.sent++
	return done
}

// PollResponse consumes the next response if present, resetting the
// entry and returning a credit. The returned payload reuses the
// connection's scratch buffer and is only valid until the next
// PollResponse; callers that retain it must copy.
func (c *Conn) PollResponse() ([]byte, bool) {
	payload, ok := c.Resp.ReadEntryAppend(c.respBuf[:0], c.head)
	if !ok {
		return nil, false
	}
	c.respBuf = payload
	c.Resp.ResetEntry(c.head)
	c.head = (c.head + 1) % c.Resp.NumEntries
	c.outstanding--
	c.received++
	return payload, true
}

// Sent and Received report message counters.
func (c *Conn) Sent() int64     { return c.sent }
func (c *Conn) Received() int64 { return c.received }

// ServerConn is the consumer (server) side: it reads requests from the
// local request ring and writes responses into the client's response
// ring through a Transport.
type ServerConn struct {
	Req  *Ring  // request ring in local memory
	Resp Layout // response ring in the client's memory

	t Transport

	head     int // next request entry to consume
	respTail int

	served int64

	// Reusable buffers: reqBuf backs NextRequest's payload (valid until
	// the next NextRequest on this connection), entryBuf backs Respond's
	// framed entry (copied out by the Transport before it returns).
	reqBuf, entryBuf []byte

	// tr, when attached, wraps each Respond in a StageRing span.
	tr *obs.Trace
}

// NewServerConn builds the server side of a connection.
func NewServerConn(req *Ring, resp Layout, t Transport) *ServerConn {
	return &ServerConn{Req: req, Resp: resp, t: t}
}

// SetTrace attaches (or with nil detaches) a span recorder; Respond
// then records a StageRing span around each delivery.
func (s *ServerConn) SetTrace(tr *obs.Trace) { s.tr = tr }

// NextRequest returns the next pending request payload without
// consuming it. idx identifies the entry for Complete. The payload
// reuses the connection's scratch buffer and is only valid until the
// next NextRequest; callers that retain it must copy.
func (s *ServerConn) NextRequest() (payload []byte, idx int, ok bool) {
	payload, ok = s.Req.ReadEntryAppend(s.reqBuf[:0], s.head)
	if ok {
		s.reqBuf = payload
	}
	return payload, s.head, ok
}

// Complete resets the consumed entry and advances the head. idx must be
// the value returned by NextRequest (entries complete in order — the
// ring semantics cpoll relies on).
func (s *ServerConn) Complete(idx int) {
	if idx != s.head {
		panic(fmt.Sprintf("ringbuf: out-of-order complete %d, head %d", idx, s.head))
	}
	s.Req.ResetEntry(idx)
	s.head = (s.head + 1) % s.Req.NumEntries
	s.served++
}

// Respond writes a response into the client's response ring, returning
// its visibility time at the client.
func (s *ServerConn) Respond(now sim.Time, payload []byte) sim.Time {
	s.entryBuf = s.Resp.AppendEncode(s.entryBuf[:0], payload)
	entry := s.entryBuf
	addr := s.Resp.EntryAddr(s.respTail)
	var sp obs.SpanID
	if s.tr != nil {
		sp = s.tr.Push("ring-respond", obs.StageRing, now)
	}
	done := s.t.Deliver(now, addr, entry, 0, 0)
	if s.tr != nil {
		s.tr.Pop(sp, done)
	}
	s.respTail = (s.respTail + 1) % s.Resp.NumEntries
	return done
}

// Served reports completed requests.
func (s *ServerConn) Served() int64 { return s.served }
