package dlrm

import (
	"math"

	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// MLP is the dense part of the recommendation model: one hidden layer
// with ReLU and a sigmoid output producing the click-through score. The
// paper notes this compute is "relatively lightweight in the model",
// which is why pure accelerator FLOPs don't rescue RAMBDA's DLRM
// throughput (Sec. VI-D).
type MLP struct {
	Dim, Hidden int
	w1          []float32 // row-major [hidden][dim], flat for locality
	b1          []float32
	w2          []float32 // [hidden]
	b2          float32
}

// NewMLP builds a deterministic MLP.
func NewMLP(dim, hidden int, rng *sim.RNG) *MLP {
	if dim <= 0 || hidden <= 0 {
		panic("dlrm: bad MLP shape")
	}
	m := &MLP{Dim: dim, Hidden: hidden}
	m.w1 = make([]float32, hidden*dim)
	for i := range m.w1 {
		m.w1[i] = float32(rng.Float64()*0.2 - 0.1)
	}
	m.b1 = make([]float32, hidden)
	m.w2 = make([]float32, hidden)
	for i := range m.w2 {
		m.w2[i] = float32(rng.Float64()*0.2 - 0.1)
	}
	return m
}

// Forward computes the score for a reduced embedding vector and returns
// the FLOP count. Scores are bit-stable: each hidden unit starts from
// its bias and adds its weighted inputs in index order, and the ReLU
// terms join the output in unit order. Separate units' accumulators may
// interleave, but no unit's sum is ever reassociated, split into
// partial sums or fused into an FMA.
func (m *MLP) Forward(x []float32) (float32, int) {
	if len(x) != m.Dim {
		panic("dlrm: MLP input dimension mismatch")
	}
	score := float32(1 / (1 + math.Exp(-float64(m.logit(x)))))
	flops := m.Hidden*(2*m.Dim+2) + 4
	return score, flops
}

// logit is the MLP's output before the sigmoid. Four hidden units share
// each pass over x, each in its own accumulator, so four add chains
// overlap where one ran alone; a scalar loop takes the last Hidden%4.
func (m *MLP) logit(x []float32) float32 {
	n := len(x)
	var out float32
	i := 0
	for ; i+4 <= m.Hidden; i += 4 {
		w := m.w1[i*n : (i+4)*n]
		r0, r1, r2, r3 := w[:n], w[n:][:n], w[2*n:][:n], w[3*n:][:n]
		b := m.b1[i : i+4]
		a0, a1, a2, a3 := b[0], b[1], b[2], b[3]
		for j, v := range x {
			a0 += r0[j] * v
			a1 += r1[j] * v
			a2 += r2[j] * v
			a3 += r3[j] * v
		}
		w2 := m.w2[i : i+4]
		if a0 > 0 { // ReLU
			out += a0 * w2[0]
		}
		if a1 > 0 {
			out += a1 * w2[1]
		}
		if a2 > 0 {
			out += a2 * w2[2]
		}
		if a3 > 0 {
			out += a3 * w2[3]
		}
	}
	for ; i < m.Hidden; i++ {
		acc := m.b1[i]
		row := m.w1[i*n : (i+1)*n]
		for j, v := range x {
			acc += row[j] * v
		}
		if acc > 0 {
			out += acc * m.w2[i]
		}
	}
	return out + m.b2
}

// Model couples an embedding table, an optional MERCI memo, and the
// dense layers.
type Model struct {
	Table *Table
	Memo  *Memo // nil = native reduction
	MLP   *MLP

	bundles [][]int
}

// NewModel assembles a model over a dataset's table and bundles.
func NewModel(table *Table, memo *Memo, mlp *MLP, bundles [][]int) *Model {
	return &Model{Table: table, Memo: memo, MLP: mlp, bundles: bundles}
}

// AdoptInto maps the model's embedding table and memo into space as
// kind, at the addresses the model already uses (memspace.Space.Adopt).
// The regions must start at space's bump pointer, as they do when the
// model was the first allocation of a space of its own and is adopted
// first. Inference only reads the model, so one model can serve many
// spaces at once.
func (m *Model) AdoptInto(space *memspace.Space, kind memspace.Kind) {
	space.Adopt(m.Table.region, kind)
	if m.Memo != nil {
		space.Adopt(m.Memo.table.region, kind)
	}
}

// InferStats describes one inference for the timing models.
type InferStats struct {
	// Trace is the embedding/memo gather (one entry per memory access).
	Trace []Access
	// MemoHits counts bundles served from the memo.
	MemoHits int
	// ReducedVectors is the number of vectors folded.
	ReducedVectors int
	// FLOPs is the dense-layer work.
	FLOPs int
}

// InferScratch is caller-owned reuse storage for InferInto, following
// the §8 ownership discipline: the caller keeps one per request stream
// and the steady state allocates nothing once both buffers reach their
// high-water marks.
type InferScratch struct {
	Acc   []float32
	Trace []Access
}

// Infer runs the embedding reduction (memoized when possible and when
// the operator is a sum — memoized partial results only compose under
// addition) followed by the MLP, returning the score. The returned
// slices are freshly allocated; hot paths use InferInto.
func (m *Model) Infer(q Query, op AggOp) (float32, []float32, InferStats) {
	var sc InferScratch
	return m.InferInto(q, op, &sc)
}

// InferInto is Infer against caller scratch: the accumulator and trace
// live in sc and are overwritten on the next call. The arithmetic
// (decode order, fold order, zero initialization) is bit-identical to
// the allocating form.
func (m *Model) InferInto(q Query, op AggOp, sc *InferScratch) (float32, []float32, InferStats) {
	if cap(sc.Acc) < m.Table.Dim {
		sc.Acc = make([]float32, m.Table.Dim)
	}
	acc := sc.Acc[:m.Table.Dim]
	for i := range acc {
		acc[i] = 0
	}
	var st InferStats
	st.Trace = sc.Trace[:0]
	first := true

	useMemo := m.Memo != nil && op == AggSum
	for _, b := range q.Bundles {
		if useMemo {
			if row, ok := m.Memo.Lookup(b); ok {
				mt := m.Memo.Table()
				st.Trace = append(st.Trace, Access{Addr: mt.RowAddr(row), Bytes: mt.RowBytes()})
				mt.ReduceRowInto(AggSum, acc, row, 1, first)
				first = false
				st.MemoHits++
				st.ReducedVectors++
				continue
			}
		}
		for _, item := range m.bundles[b] {
			st.Trace = append(st.Trace, Access{Addr: m.Table.RowAddr(item), Bytes: m.Table.RowBytes()})
			m.Table.ReduceRowInto(op, acc, item, 1, first)
			first = false
			st.ReducedVectors++
		}
	}
	for _, item := range q.Singles {
		st.Trace = append(st.Trace, Access{Addr: m.Table.RowAddr(item), Bytes: m.Table.RowBytes()})
		m.Table.ReduceRowInto(op, acc, item, 1, first)
		first = false
		st.ReducedVectors++
	}

	score, flops := m.MLP.Forward(acc)
	st.FLOPs = flops
	sc.Acc, sc.Trace = acc, st.Trace
	return score, acc, st
}
