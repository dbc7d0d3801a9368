package obs

import (
	"fmt"
	"io"
	"os"
	"strings"

	"rambda/internal/sim"
)

// Exporters. Determinism rules:
//
//   - No wall clocks: every timestamp is virtual (sim.Time).
//   - No float formatting of times: Chrome trace_event wants
//     microseconds, so picosecond values are rendered with integer
//     math as "<µs>.<6-digit remainder>" — the same bytes every run.
//   - No map iteration: series are written in sorted or registration
//     order.
//
// Together these make "same seed → byte-identical export" hold by
// construction; the golden test enforces it end to end.

// usTS appends a picosecond time as a Chrome trace_event microsecond
// timestamp using only integer math.
func usTS(b *strings.Builder, t sim.Time) {
	fmt.Fprintf(b, "%d.%06d", int64(t)/int64(sim.Microsecond), int64(t)%int64(sim.Microsecond))
}

// TraceJSON is a named trace plus its process/thread ids in a Chrome
// trace_event export — one per job when several jobs share a file.
type TraceJSON struct {
	Name  string
	Trace *Trace
	PID   int
}

// WriteChromeTrace writes traces in Chrome trace_event JSON ("Trace
// Event Format", ph "X" complete events) to w. Load the file at
// chrome://tracing or https://ui.perfetto.dev. Nested spans share a
// thread track; the viewer reconstructs nesting from timestamps.
func WriteChromeTrace(w io.Writer, traces []TraceJSON) error {
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	first := true
	for _, tj := range traces {
		if tj.Trace == nil {
			continue
		}
		// Process-name metadata event names the track in the viewer.
		if !first {
			b.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&b, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%q}}", tj.PID, tj.Name)
		for i := range tj.Trace.spans {
			s := &tj.Trace.spans[i]
			b.WriteString(",\n")
			fmt.Fprintf(&b, "{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":", s.name, s.stage.String())
			usTS(&b, s.start)
			b.WriteString(",\"dur\":")
			usTS(&b, s.end-s.start)
			fmt.Fprintf(&b, ",\"pid\":%d,\"tid\":0}", tj.PID)
		}
		if d := tj.Trace.Dropped(); d > 0 {
			b.WriteString(",\n")
			fmt.Fprintf(&b, "{\"name\":\"dropped_spans\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"count\":%d}}", tj.PID, d)
		}
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteChromeTraceFile writes a Chrome trace_event file at path.
func WriteChromeTraceFile(path string, traces []TraceJSON) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MetricsJSON is a named registry in a metrics export.
type MetricsJSON struct {
	Name     string
	Registry *Registry
}

// WriteMetrics writes registries as deterministic JSON: final values
// sorted by series name, then the ticker samples in record order with
// series in registration order.
func WriteMetrics(w io.Writer, regs []MetricsJSON) error {
	var b strings.Builder
	b.WriteString("{\"schema\":\"rambda-metrics/1\",\"registries\":[\n")
	for ri, mj := range regs {
		if ri > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "{\"name\":%q,\"final\":{", mj.Name)
		names, vals := mj.Registry.Final()
		for i, n := range names {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%q:%s", n, formatVal(vals[i]))
		}
		b.WriteString("},\"samples\":[")
		gn := mj.Registry.GaugeNames()
		for si, s := range mj.Registry.Samples() {
			if si > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n{\"at_ps\":%d", int64(s.At))
			for i, n := range gn {
				fmt.Fprintf(&b, ",%q:%s", n, formatVal(s.Gauges[i]))
			}
			b.WriteString("}")
		}
		b.WriteString("]}")
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMetricsFile writes a metrics JSON file at path.
func WriteMetricsFile(path string, regs []MetricsJSON) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMetrics(f, regs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formatVal renders a gauge/final value deterministically: integers
// (the overwhelmingly common case — counts, depths, byte counts)
// print without a fraction; everything else gets a fixed 6-decimal
// form. strconv's shortest-float form is deterministic too, but a
// fixed width keeps diffs readable.
func formatVal(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6f", v)
}

// BreakdownRow is one stage of a per-stage latency breakdown.
type BreakdownRow struct {
	Stage Stage
	Self  sim.Duration
	Count int64
	Share float64 // fraction of total self time
}

// BreakdownRows summarizes a trace's per-stage self time in stage
// display order, with each stage's share of the total.
func BreakdownRows(t *Trace) []BreakdownRow {
	total := t.TotalSelf()
	rows := make([]BreakdownRow, 0, NumStages)
	for _, s := range Stages() {
		r := BreakdownRow{Stage: s, Self: t.StageTotal(s), Count: t.StageCount(s)}
		if total > 0 {
			r.Share = float64(r.Self) / float64(total)
		}
		rows = append(rows, r)
	}
	return rows
}
