package obs

import (
	"sort"

	"rambda/internal/sim"
)

// gauge is a named read-on-sample metric: fn is evaluated at each
// ticker sample (and at export), so the gauge closure allocates only
// at registration time, never per request.
type gauge struct {
	name string
	fn   func() float64
}

// Sample is one virtual-time snapshot of every registered gauge.
type Sample struct {
	At     sim.Time
	Gauges []float64 // registration order
}

// Registry holds gauges and samples them on a virtual-time ticker.
// Like Trace it is single-goroutine per job and nil-safe at
// instrumentation sites (`if reg != nil`).
type Registry struct {
	gauges []gauge

	interval sim.Duration
	next     sim.Time
	samples  []Sample
}

// NewRegistry returns an empty registry with no ticker armed.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers a polled gauge. fn is called at each ticker sample
// and at export; it must be cheap and deterministic.
func (r *Registry) Gauge(name string, fn func() float64) {
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i].fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
}

// Freeze evaluates every gauge one last time and keeps the value in
// place of its closure. Call it once the instrumented system is done:
// a registry held for a later export then no longer keeps that system's
// machines, stores and memory images reachable. Final and any later
// sample read the frozen values.
func (r *Registry) Freeze() {
	for i := range r.gauges {
		v := r.gauges[i].fn()
		r.gauges[i].fn = func() float64 { return v }
	}
}

// SetInterval arms the virtual-time ticker: Tick(now) snapshots all
// series whenever now crosses the next interval boundary. A zero
// interval disarms it.
func (r *Registry) SetInterval(d sim.Duration) {
	r.interval = d
	r.next = 0
	if d > 0 {
		r.next = d
	}
}

// Tick advances the ticker to now, emitting one sample per crossed
// interval boundary (coalesced bursts emit one sample stamped at the
// boundary they crossed, keeping sample times deterministic).
func (r *Registry) Tick(now sim.Time) {
	if r.interval <= 0 || now < r.next {
		return
	}
	for now >= r.next {
		r.snapshot(r.next)
		r.next += r.interval
	}
}

// snapshot appends one sample stamped at t.
func (r *Registry) snapshot(t sim.Time) {
	s := Sample{At: t}
	if len(r.gauges) > 0 {
		s.Gauges = make([]float64, len(r.gauges))
		for i, g := range r.gauges {
			s.Gauges[i] = g.fn()
		}
	}
	r.samples = append(r.samples, s)
}

// SnapshotNow forces a sample stamped at now, independent of the
// ticker — used for a final end-of-run sample.
func (r *Registry) SnapshotNow(now sim.Time) { r.snapshot(now) }

// Samples returns the recorded ticker samples.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.samples
}

// GaugeNames lists registered gauge names in registration order.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.gauges))
	for i, g := range r.gauges {
		names[i] = g.name
	}
	return names
}

// Final evaluates every gauge once and returns name→value pairs sorted
// by name — the deterministic order the JSON exporter writes.
func (r *Registry) Final() ([]string, []float64) {
	if r == nil {
		return nil, nil
	}
	names := make([]string, 0, len(r.gauges))
	vals := make(map[string]float64, len(r.gauges))
	for _, g := range r.gauges {
		names = append(names, g.name)
		vals[g.name] = g.fn()
	}
	sort.Strings(names)
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = vals[n]
	}
	return names, out
}
