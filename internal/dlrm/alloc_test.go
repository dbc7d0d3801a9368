package dlrm

import (
	"math"
	"testing"

	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Steady-state allocation guards for the DLRM gather path: a query
// stream driven through NextQueryInto + InferInto with caller scratch
// must not allocate once the scratch reaches its high-water mark. This
// path was fig13's allocation bill (~6.9M allocs/run from Table.Row,
// the per-query dedup map, and the per-request accumulator).

func TestGatherPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	for _, withMemo := range []bool{false, true} {
		model, ds := buildModel(t, withMemo)
		var q Query
		var sc InferScratch
		// Warm the scratch to its high-water mark.
		for i := 0; i < 32; i++ {
			ds.NextQueryInto(&q)
			model.InferInto(q, AggSum, &sc)
		}
		n := testing.AllocsPerRun(200, func() {
			ds.NextQueryInto(&q)
			model.InferInto(q, AggSum, &sc)
		})
		if n != 0 {
			t.Fatalf("memo=%v: %.2f allocs/op in steady state, want 0", withMemo, n)
		}
	}
}

// The Into forms must be observationally identical to the allocating
// forms: same query stream, bit-identical scores and accumulators, same
// traces and stats.
func TestInferIntoMatchesInfer(t *testing.T) {
	modelA, dsA := buildModel(t, true)
	modelB, dsB := buildModel(t, true)
	var q Query
	var sc InferScratch
	for i := 0; i < 200; i++ {
		qa := dsA.NextQuery()
		dsB.NextQueryInto(&q)
		scoreA, accA, stA := modelA.Infer(qa, AggSum)
		scoreB, accB, stB := modelB.InferInto(q, AggSum, &sc)
		if scoreA != scoreB {
			t.Fatalf("query %d: score %v vs %v", i, scoreA, scoreB)
		}
		if len(accA) != len(accB) {
			t.Fatalf("query %d: acc lengths differ", i)
		}
		for j := range accA {
			if accA[j] != accB[j] {
				t.Fatalf("query %d: acc[%d] %v vs %v", i, j, accA[j], accB[j])
			}
		}
		if stA.MemoHits != stB.MemoHits || stA.ReducedVectors != stB.ReducedVectors ||
			stA.FLOPs != stB.FLOPs || len(stA.Trace) != len(stB.Trace) {
			t.Fatalf("query %d: stats diverged: %+v vs %+v", i, stA, stB)
		}
		for j := range stA.Trace {
			if stA.Trace[j] != stB.Trace[j] {
				t.Fatalf("query %d: trace[%d] %+v vs %+v", i, j, stA.Trace[j], stB.Trace[j])
			}
		}
	}
}

// ReduceRowInto must be bit-identical to decode-then-Reduce for every
// operator, including the first-fold overwrite semantics of max/min, at
// widths on both sides of the sum fold's eight-element step. The first
// row folded holds negative zeros, which an == comparison would let
// through as +0.
func TestReduceRowIntoMatchesReduce(t *testing.T) {
	for _, dim := range []int{1, 7, 8, 9, 15, 64, 65} {
		tb := NewTable(memspace.New(), "t", 4096, dim, memspace.KindDRAM, sim.NewRNG(11))
		negZeros := tb.Row(3)
		for j := 0; j < dim; j += 2 {
			negZeros[j] = float32(math.Copysign(0, -1))
		}
		tb.SetRow(3, negZeros)
		for _, op := range []AggOp{AggSum, AggMax, AggMin, AggDot} {
			ref := make([]float32, dim)
			got := make([]float32, dim)
			for i, row := range []int{3, 0, 77, 4095, 77} {
				first := i == 0
				Reduce(op, ref, tb.Row(row), 0.5, first)
				tb.ReduceRowInto(op, got, row, 0.5, first)
				for j := range ref {
					if math.Float32bits(ref[j]) != math.Float32bits(got[j]) {
						t.Fatalf("dim=%d op=%v fold %d: [%d] %v vs %v", dim, op, i, j, ref[j], got[j])
					}
				}
			}
		}
	}
}
