// Package obs is the deterministic observability layer: virtual-time
// request spans and a metrics registry, with exporters for Chrome
// trace_event JSON and per-stage latency breakdowns.
//
// Everything here runs in *virtual* time (sim.Time picoseconds) and is
// driven synchronously by the simulation, so the same seed always
// produces byte-identical exports — no wall clocks, no goroutine
// interleaving, no map-order dependence.
//
// # The nil fast path
//
// Every instrumentation site in the protocol layers is guarded by a
// nil check (`if tr != nil`), mirroring the fault-injection pattern:
// a nil *Trace or *Registry costs one predictable branch and touches
// no memory, so figures run byte-identical to an uninstrumented build
// and the steady-state zero-allocation guards keep holding.
//
// # Spans
//
// A Trace records spans with Push/Pop (nested regions) or Span
// (leaves). The simulation walks each request synchronously on one
// goroutine, so the open-span structure is a genuine stack: Push
// links the new span to the current stack top, Pop closes it and
// credits its duration to the parent's child time. Per-stage totals
// are *self time* (duration minus child time), so nested layers —
// a ring span containing NIC spans containing wire spans — never
// double-count.
//
// Span storage is pooled: Reset keeps capacity, and once the backing
// slices have grown to the workload's high-water mark, recording is
// allocation-free. Span names must be constant or pre-built strings;
// formatting a name at a record site would defeat the pooling. Past
// the storage cap, new spans stop being stored (the Chrome export is
// a representative prefix) but stage totals keep accumulating, so a
// breakdown still covers every request.
//
// A Trace is single-goroutine by design (one per runner job / sweep
// point), exactly like the rest of the per-job simulation state.
package obs

import "rambda/internal/sim"

// Stage tags a span with the layer that owns its self time. The
// taxonomy matches the paper's latency decomposition: NIC engine,
// wire, ring buffer, notification, compute, memory.
type Stage uint8

const (
	// StageNIC is RNIC engine work: WQE execution, doorbells, DMA
	// legs, CQE delivery.
	StageNIC Stage = iota
	// StageWire is time on a network link (serialization + flight).
	StageWire
	// StageRing is ring-buffer framing: staging an entry, pointer
	// publication, response writes.
	StageRing
	// StageNotify is notification latency: cache-coherence signal to
	// harvest, or poll-loop discovery.
	StageNotify
	// StageCompute is accelerator/CPU instruction-path work.
	StageCompute
	// StageMemory is data-access time (DRAM/NVM/HBM reads and writes).
	StageMemory
	// StageOther tags envelope spans (the per-request root) whose self
	// time is whatever the attributed stages did not cover: client-side
	// think time, queueing gaps, scheduling slack.
	StageOther

	// NumStages is the number of stage tags.
	NumStages = int(StageOther) + 1
)

// String names the stage for tables and trace categories.
func (s Stage) String() string {
	switch s {
	case StageNIC:
		return "nic"
	case StageWire:
		return "wire"
	case StageRing:
		return "ring"
	case StageNotify:
		return "notify"
	case StageCompute:
		return "compute"
	case StageMemory:
		return "memory"
	case StageOther:
		return "other"
	}
	return "unknown"
}

// Stages lists all stage tags in display order.
func Stages() [NumStages]Stage {
	return [NumStages]Stage{StageNIC, StageWire, StageRing, StageNotify,
		StageCompute, StageMemory, StageOther}
}

// span is one stored region. parent is an index into the trace's
// span slice (-1 for roots).
type span struct {
	name   string
	stage  Stage
	parent int32
	start  sim.Time
	end    sim.Time
}

// openSpan is a stack frame for an in-progress region. Child time is
// accumulated here rather than on the stored span, so self-time math
// stays exact even for spans dropped past the storage cap.
type openSpan struct {
	id    int32 // stored-span index, or -1 if dropped
	stage Stage
	start sim.Time
	child sim.Duration
}

// SpanID identifies an open span returned by Push.
type SpanID int32

// DefaultMaxSpans bounds the per-trace span storage. Past the cap new
// spans are dropped (and counted) while stage totals keep
// accumulating.
const DefaultMaxSpans = 1 << 16

// Trace is a pooled, virtual-time span recorder. The zero value is
// NOT ready; use NewTrace. A nil *Trace is the documented "tracing
// off" state: accessors are nil-safe, but instrumentation sites guard
// record calls with `if tr != nil` so the off path never even makes
// the call.
type Trace struct {
	spans   []span
	stack   []openSpan
	totals  [NumStages]sim.Duration
	counts  [NumStages]int64
	dropped int64
	max     int
}

// NewTrace returns an empty trace capped at DefaultMaxSpans stored
// spans.
func NewTrace() *Trace { return NewTraceCap(DefaultMaxSpans) }

// NewTraceCap returns an empty trace storing at most maxSpans spans
// (0 means DefaultMaxSpans).
func NewTraceCap(maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Trace{max: maxSpans}
}

// Reset clears recorded spans and totals while keeping capacity, so a
// warmed trace records without allocating.
func (t *Trace) Reset() {
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	t.totals = [NumStages]sim.Duration{}
	t.counts = [NumStages]int64{}
	t.dropped = 0
}

// parentID returns the innermost *stored* open span's index, skipping
// frames dropped past the cap (-1 when none).
func (t *Trace) parentID() int32 {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if p := t.stack[i].id; p >= 0 {
			return p
		}
	}
	return -1
}

// Push opens a span at start, parented to the innermost open span.
// name must be a constant or pre-built string. The returned id must
// be closed with Pop in LIFO order.
func (t *Trace) Push(name string, stage Stage, start sim.Time) SpanID {
	id := int32(-1)
	if len(t.spans) < t.max {
		id = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, stage: stage, parent: t.parentID(), start: start})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, openSpan{id: id, stage: stage, start: start})
	return SpanID(id)
}

// Pop closes the innermost open span at end, accumulating its self
// time into the stage totals and its duration into the parent's child
// time. id must match the innermost Push (it is accepted for
// call-site clarity; the stack is authoritative).
func (t *Trace) Pop(id SpanID, end sim.Time) {
	n := len(t.stack)
	if n == 0 {
		return
	}
	f := t.stack[n-1]
	t.stack = t.stack[:n-1]
	d := end - f.start
	t.totals[f.stage] += d - f.child
	t.counts[f.stage]++
	if f.id >= 0 {
		t.spans[f.id].end = end
	}
	if n >= 2 {
		t.stack[n-2].child += d
	}
	_ = id
}

// Span records a closed leaf span in one call: Push+Pop without the
// stack round trip, for sites that know both endpoints.
func (t *Trace) Span(name string, stage Stage, start, end sim.Time) {
	d := end - start
	t.totals[stage] += d
	t.counts[stage]++
	if len(t.spans) < t.max {
		t.spans = append(t.spans, span{name: name, stage: stage, parent: t.parentID(), start: start, end: end})
	} else {
		t.dropped++
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// Len reports the number of stored spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Dropped reports how many spans were discarded past the storage cap.
// Their stage totals were still accumulated.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// StageTotal reports the accumulated self time for one stage.
func (t *Trace) StageTotal(s Stage) sim.Duration {
	if t == nil {
		return 0
	}
	return t.totals[s]
}

// StageCount reports the number of closed spans tagged with s.
func (t *Trace) StageCount(s Stage) int64 {
	if t == nil {
		return 0
	}
	return t.counts[s]
}

// TotalSelf sums self time across all stages — the denominator for
// per-stage shares.
func (t *Trace) TotalSelf() sim.Duration {
	if t == nil {
		return 0
	}
	var sum sim.Duration
	for _, d := range t.totals {
		sum += d
	}
	return sum
}
