package dlrm

import (
	"math"

	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// This file holds the DLRM micro kernel cmd/rambda-bench times: one
// inference (the MERCI memo and embedding gather-reduce plus the MLP)
// at Fig. 13's RAMBDA-LH model shape, against caller scratch as the
// experiments run it.

// benchQueries is the length of the kernel's pre-drawn query stream,
// so the kernel times inference and not the query generator.
const benchQueries = 1024

// lhModel builds the Fig. 13 RAMBDA-LH model the way the experiments
// do: the Electronics category at a quarter of its rows, 64-wide
// embeddings, a memo of rows/4 and a 64→32 MLP.
func lhModel(seed uint64) (*Model, *Dataset) {
	cat := AmazonCategories[0]
	cat.Rows /= 4
	space := memspace.New()
	ds := NewDataset(cat, seed)
	rng := sim.NewRNG(seed + 3)
	table := NewTable(space, "emb", cat.Rows, 64, memspace.KindDRAM, rng)
	memo := BuildMemo(space, "memo", table, ds.Bundles, cat.Rows/4, memspace.KindDRAM, rng)
	return NewModel(table, memo, NewMLP(64, 32, rng), ds.Bundles), ds
}

// foldScore mixes a score's bits into a running checksum.
func foldScore(h uint64, score float32) uint64 {
	return (h ^ uint64(math.Float32bits(score))) * 1099511628211
}

// BenchInferInto runs n inferences over a pre-drawn LH query stream and
// returns a checksum of the scores so the work cannot be optimized
// away. One op is one InferInto: 14 row folds (every LH bundle fits
// the memo, so six memo rows and eight singles) and one MLP forward; it
// allocates nothing.
func BenchInferInto(n int) uint64 {
	m, ds := lhModel(1)
	queries := make([]Query, benchQueries)
	for i := range queries {
		queries[i] = ds.NextQuery()
	}
	var sc InferScratch
	var sum uint64
	for i := 0; i < n; i++ {
		score, _, _ := m.InferInto(queries[i%benchQueries], AggSum, &sc)
		sum = foldScore(sum, score)
	}
	return sum
}
