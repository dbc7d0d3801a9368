package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer identifies one timed call boundary. Every span is recorded from
// the benchmark's side of a public package call, so the program under
// test carries no instrumentation.
type layer int

const (
	layerSimLoop layer = iota
	layerCoreBuild
	layerKVSPreload
	layerLSMPreload
	layerCoreCall
	layerAccelData
	layerAccelCompute
	layerKVSCodec
	layerKVSStore
	layerLSMStore
	layerLSMMaintain
	layerDLRMBuild
	layerDLRMQuery
	layerDLRMInfer
	layerAccelGather
	layerCoreInvoke
	layerInterconnectSend
	layerRender
	// The suite's per-spec layers follow, one per experiments spec, in
	// print order (see layerNames).
	numFixedLayers
)

var fixedLayerNames = [numFixedLayers]string{
	layerSimLoop:          "sim.loop",
	layerCoreBuild:        "core.build",
	layerKVSPreload:       "kvs.preload",
	layerLSMPreload:       "lsm.preload",
	layerCoreCall:         "core.call",
	layerAccelData:        "accel.data",
	layerAccelCompute:     "accel.compute",
	layerKVSCodec:         "kvs.codec",
	layerKVSStore:         "kvs.store",
	layerLSMStore:         "lsm.store",
	layerLSMMaintain:      "lsm.maintain",
	layerDLRMBuild:        "dlrm.build",
	layerDLRMQuery:        "dlrm.query",
	layerDLRMInfer:        "dlrm.infer",
	layerAccelGather:      "accel.gather",
	layerCoreInvoke:       "core.invoke",
	layerInterconnectSend: "interconnect.send",
	layerRender:           "experiments.render",
}

// specLayer is the layer timing runner.Run over spec i's jobs.
func specLayer(i int) layer { return numFixedLayers + layer(i) }

// layerNames lists every layer: the fixed ones, then one per suite spec.
func layerNames() []string {
	names := append([]string(nil), fixedLayerNames[:]...)
	for _, id := range suiteSpecIDs() {
		names = append(names, "experiments."+id)
	}
	return names
}

// spanEvery is the request sampling stride for kept span trees: every
// request is timed into the per-layer totals, but only every spanEvery-th
// request's spans are kept for the Chrome trace, which bounds the trace
// to a few thousand events per repetition.
const spanEvery = 1024

// tracer accumulates per-layer self time and call counts. Self time is
// a span's duration minus the spans nested inside it. Every request is
// timed, so spans read only the monotonic clock (time.Since), which
// costs half of time.Now. A disabled tracer (the untraced runs that
// give the end-to-end metrics) returns from every method at its first
// branch.
type tracer struct {
	on    bool
	base  time.Time
	self  []time.Duration
	calls []int64
	stack []frame

	requests int64
	tid      int64 // 0 during set-up, request number + 1 while serving
	keep     bool  // record spans of the current request for the trace
	events   []span
}

type frame struct {
	l     layer
	start time.Duration // since base
	child time.Duration
	keep  bool
	tid   int64
}

type span struct {
	l          layer
	start, dur time.Duration
	tid        int64
}

func newTracer(on bool, layers int) *tracer {
	return &tracer{on: on, self: make([]time.Duration, layers), calls: make([]int64, layers)}
}

// reset starts a repetition: totals and kept spans are cleared, and
// set-up spans are kept.
func (t *tracer) reset() {
	if !t.on {
		return
	}
	clear(t.self)
	clear(t.calls)
	t.stack = t.stack[:0]
	t.events = t.events[:0]
	t.requests, t.tid, t.keep = 0, 0, true
	t.base = time.Now()
}

// request marks the start of the next simulated request.
func (t *tracer) request() {
	if !t.on {
		return
	}
	t.tid = t.requests + 1
	t.keep = t.requests%spanEvery == 0
	t.requests++
}

func (t *tracer) begin(l layer) {
	if !t.on {
		return
	}
	t.stack = append(t.stack, frame{l: l, start: time.Since(t.base), keep: t.keep, tid: t.tid})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	t.close(time.Since(t.base))
}

// next ends the innermost span and begins l where it ended. Calls made
// back to back pay one clock read per boundary instead of two, which
// keeps the traced run's overhead on short requests under a tenth.
func (t *tracer) next(l layer) {
	if !t.on {
		return
	}
	now := time.Since(t.base)
	t.close(now)
	t.stack = append(t.stack, frame{l: l, start: now, keep: t.keep, tid: t.tid})
}

// close ends the innermost span at now.
func (t *tracer) close(now time.Duration) {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.keep {
		t.events = append(t.events, span{l: f.l, start: f.start, dur: d, tid: f.tid})
	}
}

// selfSum is the total self time of every layer in this repetition.
func (t *tracer) selfSum() time.Duration {
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// spanCost is the CPU time, in seconds, that one span costs an enabled
// tracer: a begin and an end, with the span kept for the trace.
func spanCost() float64 {
	const n = 1 << 16
	t := newTracer(true, 1)
	t.reset()
	start := cpuTime()
	for i := 0; i < n; i++ {
		t.begin(0)
		t.end()
	}
	return (cpuTime() - start).Seconds() / n
}

// writeTrace writes the kept spans as Chrome trace_event JSON (host
// microseconds, one tid per request) and the per-layer aggregates.
func writeTrace(dir, workload string, names []string, events []span, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int64   `json:"tid"`
	}
	out := struct {
		TraceEvents []event `json:"traceEvents"`
	}{TraceEvents: make([]event, len(events))}
	for i, s := range events {
		out.TraceEvents[i] = event{
			Name: names[s.l], Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
		}
	}
	if err := writeJSON(filepath.Join(dir, workload+".trace.json"), out); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, workload+".layers.json"), layers)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
