package obs

import (
	"bytes"
	"strings"
	"testing"

	"rambda/internal/sim"
)

func TestSpanNestingSelfTime(t *testing.T) {
	tr := NewTrace()
	// ring [0,100] containing nic [10,40] containing wire [20,30],
	// plus a leaf memory span [50,60] inside ring.
	ring := tr.Push("ring", StageRing, 0)
	nic := tr.Push("nic", StageNIC, 10)
	tr.Span("wire", StageWire, 20, 30)
	tr.Pop(nic, 40)
	tr.Span("mem", StageMemory, 50, 60)
	tr.Pop(ring, 100)

	if got := tr.StageTotal(StageWire); got != 10 {
		t.Fatalf("wire self = %v, want 10", got)
	}
	if got := tr.StageTotal(StageNIC); got != 20 {
		t.Fatalf("nic self = %v, want 20 (30 total - 10 wire child)", got)
	}
	if got := tr.StageTotal(StageMemory); got != 10 {
		t.Fatalf("memory self = %v, want 10", got)
	}
	if got := tr.StageTotal(StageRing); got != 60 {
		t.Fatalf("ring self = %v, want 60 (100 total - 30 nic - 10 mem)", got)
	}
	if got := tr.TotalSelf(); got != 100 {
		t.Fatalf("total self = %v, want 100 (== root duration)", got)
	}
	if tr.Len() != 4 {
		t.Fatalf("stored spans = %d, want 4", tr.Len())
	}
}

func TestSpanCapKeepsTotals(t *testing.T) {
	tr := NewTraceCap(2)
	tr.Span("a", StageCompute, 0, 10)
	tr.Span("b", StageCompute, 10, 20)
	tr.Span("c", StageCompute, 20, 30)  // dropped from storage
	id := tr.Push("d", StageMemory, 30) // dropped from storage
	tr.Pop(id, 40)
	if tr.Len() != 2 {
		t.Fatalf("stored = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	if got := tr.StageTotal(StageCompute); got != 30 {
		t.Fatalf("compute self past cap = %v, want 30", got)
	}
	if got := tr.StageTotal(StageMemory); got != 10 {
		t.Fatalf("memory self past cap = %v, want 10", got)
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 100; i++ {
		tr.Span("s", StageNIC, sim.Time(i), sim.Time(i+1))
	}
	tr.Reset()
	if tr.Len() != 0 || tr.TotalSelf() != 0 || tr.StageCount(StageNIC) != 0 {
		t.Fatal("Reset did not clear state")
	}
	if cap(tr.spans) < 100 {
		t.Fatal("Reset dropped capacity")
	}
}

func TestRegistryTicker(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops")
	depth := 0
	reg.Gauge("depth", func() float64 { return float64(depth) })
	reg.SetInterval(100)

	c.Add(5)
	depth = 3
	reg.Tick(50) // before first boundary: no sample
	if len(reg.Samples()) != 0 {
		t.Fatal("sampled before first boundary")
	}
	reg.Tick(100)
	c.Add(5)
	depth = 7
	reg.Tick(350) // crosses 200 and 300: coalesced burst emits both
	s := reg.Samples()
	if len(s) != 3 {
		t.Fatalf("samples = %d, want 3", len(s))
	}
	if s[0].At != 100 || s[1].At != 200 || s[2].At != 300 {
		t.Fatalf("sample times = %v %v %v, want 100 200 300", s[0].At, s[1].At, s[2].At)
	}
	if s[0].Counters[0] != 5 || s[2].Counters[0] != 10 {
		t.Fatalf("counter samples = %d %d, want 5 10", s[0].Counters[0], s[2].Counters[0])
	}
	if s[0].Gauges[0] != 3 || s[2].Gauges[0] != 7 {
		t.Fatalf("gauge samples = %v %v, want 3 7", s[0].Gauges[0], s[2].Gauges[0])
	}
}

// TestRegistryFreeze pins Freeze's contract: gauges keep the value
// they had when frozen, whatever the instrumented state does after.
func TestRegistryFreeze(t *testing.T) {
	reg := NewRegistry()
	depth := 3
	reg.Gauge("depth", func() float64 { return float64(depth) })
	reg.Freeze()
	depth = 9
	reg.SnapshotNow(10)
	if _, vals := reg.Final(); vals[0] != 3 {
		t.Fatalf("final after Freeze = %v, want 3", vals[0])
	}
	if g := reg.Samples()[0].Gauges[0]; g != 3 {
		t.Fatalf("sample after Freeze = %v, want 3", g)
	}
}

func TestCounterIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x")
	b := reg.Counter("x")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
}

func TestChromeTraceDeterministicBytes(t *testing.T) {
	mk := func() *Trace {
		tr := NewTrace()
		id := tr.Push("req", StageRing, 1_500_000) // 1.5 µs
		tr.Span("dma", StageNIC, 1_600_000, 1_900_000)
		tr.Pop(id, 2_500_000)
		return tr
	}
	var b1, b2 bytes.Buffer
	if err := WriteChromeTrace(&b1, []TraceJSON{{Name: "job", Trace: mk(), PID: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b2, []TraceJSON{{Name: "job", Trace: mk(), PID: 0}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same spans produced different bytes")
	}
	out := b1.String()
	// Integer-math µs timestamps: 1_500_000 ps = 1.500000 µs.
	if !strings.Contains(out, "\"ts\":1.500000") {
		t.Fatalf("missing integer-math timestamp in %q", out)
	}
	if !strings.Contains(out, "\"cat\":\"nic\"") {
		t.Fatalf("missing stage category in %q", out)
	}
}

func TestMetricsExportSortedAndDeterministic(t *testing.T) {
	mk := func() *Registry {
		reg := NewRegistry()
		reg.Counter("zeta").Add(2)
		reg.Counter("alpha").Add(1)
		reg.Gauge("mid", func() float64 { return 1.5 })
		return reg
	}
	var b1, b2 bytes.Buffer
	if err := WriteMetrics(&b1, []MetricsJSON{{Name: "r", Registry: mk()}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(&b2, []MetricsJSON{{Name: "r", Registry: mk()}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same registry produced different bytes")
	}
	out := b1.String()
	if strings.Index(out, "\"alpha\"") > strings.Index(out, "\"zeta\"") {
		t.Fatalf("final values not sorted by name: %q", out)
	}
	if !strings.Contains(out, "\"mid\":1.500000") {
		t.Fatalf("missing fixed-width gauge value: %q", out)
	}
}

func TestBreakdownRows(t *testing.T) {
	tr := NewTrace()
	tr.Span("a", StageCompute, 0, 75)
	tr.Span("b", StageMemory, 75, 100)
	rows := BreakdownRows(tr)
	if len(rows) != NumStages {
		t.Fatalf("rows = %d, want %d", len(rows), NumStages)
	}
	var compute, memory BreakdownRow
	for _, r := range rows {
		switch r.Stage {
		case StageCompute:
			compute = r
		case StageMemory:
			memory = r
		}
	}
	if compute.Share != 0.75 || memory.Share != 0.25 {
		t.Fatalf("shares = %v %v, want 0.75 0.25", compute.Share, memory.Share)
	}
}

func TestNilTraceAccessors(t *testing.T) {
	var tr *Trace
	if tr.Len() != 0 || tr.TotalSelf() != 0 || tr.Dropped() != 0 || tr.StageTotal(StageNIC) != 0 || tr.StageCount(StageNIC) != 0 {
		t.Fatal("nil trace accessors must read zero")
	}
	var reg *Registry
	if reg.Samples() != nil || reg.CounterNames() != nil || reg.GaugeNames() != nil {
		t.Fatal("nil registry accessors must read empty")
	}
}
