package dlrm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rambda/internal/memspace"
	"rambda/internal/sim"
)

func smallCategory() Category {
	return Category{
		Name: "Test", Rows: 4096, BundleSize: 4,
		BundlesPerQuery: 3, SinglesPerQuery: 5, BundleSkew: 0.9,
	}
}

func buildModel(t *testing.T, withMemo bool) (*Model, *Dataset) {
	t.Helper()
	space := memspace.New()
	rng := sim.NewRNG(11)
	ds := NewDataset(smallCategory(), 7)
	table := NewTable(space, "emb", ds.Cat.Rows, 64, memspace.KindDRAM, rng)
	var memo *Memo
	if withMemo {
		memo = BuildMemo(space, "memo", table, ds.Bundles, table.Rows/4, memspace.KindDRAM, rng)
	}
	mlp := NewMLP(64, 32, rng)
	return NewModel(table, memo, mlp, ds.Bundles), ds
}

func TestTableRowRoundTrip(t *testing.T) {
	space := memspace.New()
	table := NewTable(space, "t", 16, 8, memspace.KindDRAM, sim.NewRNG(1))
	v := []float32{1, -2, 3.5, 0, 8, -0.25, 6, 7}
	table.SetRow(3, v)
	got := table.Row(3)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("row[%d]=%v, want %v", i, got[i], v[i])
		}
	}
	if table.RowBytes() != 32 {
		t.Fatal("row bytes")
	}
	if table.RowAddr(1)-table.RowAddr(0) != 32 {
		t.Fatal("row stride")
	}
}

func TestTableBounds(t *testing.T) {
	space := memspace.New()
	table := NewTable(space, "t", 4, 8, memspace.KindDRAM, sim.NewRNG(1))
	for _, f := range []func(){
		func() { table.RowAddr(4) },
		func() { table.RowAddr(-1) },
		func() { table.SetRow(0, []float32{1}) },
	} {
		func() {
			defer func() { recover() }()
			f()
			t.Fatal("expected panic")
		}()
	}
}

func TestReduceOperators(t *testing.T) {
	a := []float32{1, 5, -2}
	b := []float32{3, 2, -7}

	sum := make([]float32, 3)
	Reduce(AggSum, sum, a, 1, true)
	Reduce(AggSum, sum, b, 1, false)
	if sum[0] != 4 || sum[1] != 7 || sum[2] != -9 {
		t.Fatalf("sum=%v", sum)
	}

	max := make([]float32, 3)
	Reduce(AggMax, max, a, 1, true)
	Reduce(AggMax, max, b, 1, false)
	if max[0] != 3 || max[1] != 5 || max[2] != -2 {
		t.Fatalf("max=%v", max)
	}

	min := make([]float32, 3)
	Reduce(AggMin, min, a, 1, true)
	Reduce(AggMin, min, b, 1, false)
	if min[0] != 1 || min[1] != 2 || min[2] != -7 {
		t.Fatalf("min=%v", min)
	}

	dot := make([]float32, 3)
	Reduce(AggDot, dot, a, 2, true)
	Reduce(AggDot, dot, b, -1, false)
	if dot[0] != -1 || dot[1] != 8 || dot[2] != 3 {
		t.Fatalf("dot=%v", dot)
	}
}

func TestMemoizedEqualsNative(t *testing.T) {
	// The load-bearing MERCI property: memoized reduction returns
	// exactly the native result.
	mMemo, ds := buildModel(t, true)
	mNative := NewModel(mMemo.Table, nil, mMemo.MLP, ds.Bundles)
	for i := 0; i < 50; i++ {
		q := ds.NextQuery()
		_, accA, stA := mMemo.Infer(q, AggSum)
		_, accB, stB := mNative.Infer(q, AggSum)
		for j := range accA {
			if math.Abs(float64(accA[j]-accB[j])) > 1e-3 {
				t.Fatalf("query %d dim %d: memo %v vs native %v", i, j, accA[j], accB[j])
			}
		}
		if stA.MemoHits == 0 {
			t.Fatalf("query %d: no memo hits with full-budget memo", i)
		}
		if len(stA.Trace) >= len(stB.Trace) {
			t.Fatalf("memoized trace (%d) not smaller than native (%d)", len(stA.Trace), len(stB.Trace))
		}
	}
}

// TestAdoptIntoMapsModel adopts a model built in a space of its own
// into a second space as accelerator-local memory: its table and memo
// keep their addresses, read as the adopted kind there, and sit exactly
// where allocations of their sizes would have, so the next allocation
// lands where it would have after them.
func TestAdoptIntoMapsModel(t *testing.T) {
	m, ds := buildModel(t, true)
	space, ref := memspace.New(), memspace.New()
	m.AdoptInto(space, memspace.KindAccelLocal)
	for _, r := range []memspace.Range{m.Table.Range(), m.Memo.Table().Range()} {
		if got := ref.Alloc("ref", r.Size, memspace.KindDRAM).Base; got != r.Base {
			t.Fatalf("region at %#x, an allocation of its size lands at %#x", r.Base, got)
		}
		if k := space.KindOf(r.Base); k != memspace.KindAccelLocal {
			t.Fatalf("adopted region at %#x reads as %v", r.Base, k)
		}
	}
	if a, b := space.Alloc("next", 64, memspace.KindDRAM).Base, ref.Alloc("next", 64, memspace.KindDRAM).Base; a != b {
		t.Fatalf("allocation after adoption at %#x, want %#x", a, b)
	}
	_, _, st := m.Infer(ds.NextQuery(), AggSum)
	for _, a := range st.Trace {
		if space.Region(a.Addr) == nil {
			t.Fatalf("trace address %#x not mapped in the adopting space", a.Addr)
		}
	}
}

func TestMemoBudgetLimitsHits(t *testing.T) {
	space := memspace.New()
	rng := sim.NewRNG(3)
	ds := NewDataset(smallCategory(), 7)
	table := NewTable(space, "emb", ds.Cat.Rows, 64, memspace.KindDRAM, rng)
	// Tiny budget: only the first 8 bundles are memoized.
	memo := BuildMemo(space, "memo", table, ds.Bundles, 8, memspace.KindDRAM, rng)
	if memo.Memoized() != 8 {
		t.Fatalf("memoized=%d", memo.Memoized())
	}
	if _, ok := memo.Lookup(7); !ok {
		t.Fatal("hot bundle missing")
	}
	if _, ok := memo.Lookup(9); ok {
		t.Fatal("cold bundle memoized past budget")
	}
}

func TestMemoOverheadRatio(t *testing.T) {
	m, _ := buildModel(t, true)
	ratio := m.Memo.OverheadRatio(m.Table)
	if ratio > 0.26 || ratio <= 0 {
		t.Fatalf("overhead=%v, want <= 0.25 (paper's memo budget)", ratio)
	}
}

func TestMemoBypassedForNonSumOps(t *testing.T) {
	m, ds := buildModel(t, true)
	q := ds.NextQuery()
	_, _, st := m.Infer(q, AggMax)
	if st.MemoHits != 0 {
		t.Fatal("memoized partial sums must not serve max reductions")
	}
	if st.ReducedVectors != q.NumItems(ds.Cat.BundleSize) {
		t.Fatalf("reduced=%d, want %d", st.ReducedVectors, q.NumItems(ds.Cat.BundleSize))
	}
}

func TestInferTraceMatchesQueryShape(t *testing.T) {
	m, ds := buildModel(t, false)
	q := ds.NextQuery()
	_, _, st := m.Infer(q, AggSum)
	want := q.NumItems(ds.Cat.BundleSize)
	if len(st.Trace) != want || st.ReducedVectors != want {
		t.Fatalf("trace=%d reduced=%d, want %d", len(st.Trace), st.ReducedVectors, want)
	}
	for _, a := range st.Trace {
		if a.Bytes != 256 { // dim 64 x 4B
			t.Fatalf("access bytes=%d", a.Bytes)
		}
	}
	if st.FLOPs <= 0 {
		t.Fatal("FLOPs not counted")
	}
}

func TestMLPDeterministicAndBounded(t *testing.T) {
	rng := sim.NewRNG(5)
	mlp := NewMLP(8, 4, rng)
	x := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	s1, fl := mlp.Forward(x)
	s2, _ := mlp.Forward(x)
	if s1 != s2 {
		t.Fatal("MLP must be deterministic")
	}
	if s1 <= 0 || s1 >= 1 {
		t.Fatalf("sigmoid output %v out of (0,1)", s1)
	}
	if fl != 4*(2*8+2)+4 {
		t.Fatalf("flops=%d", fl)
	}
}

func TestDatasetQueriesInRange(t *testing.T) {
	for _, cat := range AmazonCategories {
		cat := cat
		cat.Rows /= 100 // shrink for test speed
		ds := NewDataset(cat, 42)
		for i := 0; i < 20; i++ {
			q := ds.NextQuery()
			if len(q.Bundles) != cat.BundlesPerQuery || len(q.Singles) != cat.SinglesPerQuery {
				t.Fatalf("%s: query shape %d/%d", cat.Name, len(q.Bundles), len(q.Singles))
			}
			for _, b := range q.Bundles {
				if b < 0 || b >= len(ds.Bundles) {
					t.Fatalf("%s: bundle %d out of range", cat.Name, b)
				}
			}
			for _, s := range q.Singles {
				if s < 0 || s >= cat.Rows {
					t.Fatalf("%s: single %d out of range", cat.Name, s)
				}
			}
		}
	}
}

// A category NewDataset cannot draw queries from must panic up front:
// with fewer bundles than a query's distinct draws, NextQuery would
// spin forever.
func TestNewDatasetRejectsBadShape(t *testing.T) {
	for _, cat := range []Category{
		{Name: "few-bundles", Rows: 8, BundleSize: 4, BundlesPerQuery: 2, SinglesPerQuery: 1, BundleSkew: 0.9},
		{Name: "no-bundles", Rows: 4, BundleSize: 4, BundlesPerQuery: 0, SinglesPerQuery: 1, BundleSkew: 0.9},
		{Name: "zero-size", Rows: 64, BundleSize: 0, BundlesPerQuery: 1, SinglesPerQuery: 1, BundleSkew: 0.9},
		{Name: "neg-bundles", Rows: 64, BundleSize: 4, BundlesPerQuery: -1, SinglesPerQuery: 1, BundleSkew: 0.9},
		{Name: "neg-singles", Rows: 64, BundleSize: 4, BundlesPerQuery: 1, SinglesPerQuery: -1, BundleSkew: 0.9},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "dlrm: bad ") {
					t.Errorf("%s: recovered %q, want a dlrm: bad ... panic", cat.Name, msg)
				}
			}()
			NewDataset(cat, 1)
		}()
	}
	// The boundary shape is legal: one bundle, drawn once per query.
	q := NewDataset(Category{Name: "one", Rows: 8, BundleSize: 4, BundlesPerQuery: 1, SinglesPerQuery: 1, BundleSkew: 0.9}, 1).NextQuery()
	if len(q.Bundles) != 1 || q.Bundles[0] != 0 {
		t.Fatalf("one-bundle query %+v", q)
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(smallCategory(), 9)
	b := NewDataset(smallCategory(), 9)
	for i := 0; i < 10; i++ {
		qa, qb := a.NextQuery(), b.NextQuery()
		for j := range qa.Bundles {
			if qa.Bundles[j] != qb.Bundles[j] {
				t.Fatal("same seed, different queries")
			}
		}
	}
}

func TestReducePropertySumCommutes(t *testing.T) {
	// Sum reduction must be order-independent (up to float tolerance).
	f := func(perm uint8) bool {
		space := memspace.New()
		table := NewTable(space, "t", 32, 16, memspace.KindDRAM, sim.NewRNG(2))
		items := []int{1, 5, 9, 13, 21}
		rot := int(perm) % len(items)
		rotated := append(append([]int{}, items[rot:]...), items[:rot]...)

		sum := func(order []int) []float32 {
			acc := make([]float32, 16)
			for i, it := range order {
				Reduce(AggSum, acc, table.Row(it), 1, i == 0)
			}
			return acc
		}
		a, b := sum(items), sum(rotated)
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
