// Package dlrm implements the deep learning recommendation model
// inference application of paper Sec. IV-C: embedding tables with
// gather-reduce ("embedding reduction") under configurable aggregation
// operators, MERCI sub-query memoization (Lee et al., ASPLOS'21) with
// 0.25x-sized memoization tables, small MLP layers, and a synthetic
// query generator parameterized per Amazon Review category.
//
// Embedding rows live in the simulated address space so every inference
// yields the memory access trace the CPU and accelerator models charge;
// the arithmetic is real (memoized and native reductions must agree
// bit-for-bit).
package dlrm

import (
	"encoding/binary"
	"fmt"
	"math"

	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// Access is one memory access of an inference trace.
type Access struct {
	Addr  memspace.Addr
	Bytes int
}

// Table is an embedding table of Rows x Dim float32 values backed by
// the simulated address space.
type Table struct {
	Rows int
	Dim  int

	region *memspace.Region
}

// NewTable allocates and deterministically initializes a table.
func NewTable(space *memspace.Space, name string, rows, dim int, kind memspace.Kind, rng *sim.RNG) *Table {
	if rows <= 0 || dim <= 0 {
		panic("dlrm: bad table shape")
	}
	t := &Table{
		Rows:   rows,
		Dim:    dim,
		region: space.Alloc(name, uint64(rows*dim*4), kind),
	}
	buf := t.region.Bytes()
	for i := 0; i < rows*dim; i++ {
		// Small deterministic values keep sums well-conditioned.
		v := float32(rng.Float64()*2 - 1)
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	return t
}

// RowBytes is the size of one embedding vector.
func (t *Table) RowBytes() int { return t.Dim * 4 }

// RowAddr returns the address of row i.
func (t *Table) RowAddr(i int) memspace.Addr {
	if i < 0 || i >= t.Rows {
		panic(fmt.Sprintf("dlrm: row %d out of range [0,%d)", i, t.Rows))
	}
	return t.region.Base + memspace.Addr(i*t.RowBytes())
}

// Row decodes row i.
func (t *Table) Row(i int) []float32 {
	raw := t.region.Slice(t.RowAddr(i), t.RowBytes())
	out := make([]float32, t.Dim)
	for j := range out {
		out[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:]))
	}
	return out
}

// SetRow overwrites row i (used by the memo builder).
func (t *Table) SetRow(i int, v []float32) {
	if len(v) != t.Dim {
		panic("dlrm: dimension mismatch")
	}
	raw := t.region.Slice(t.RowAddr(i), t.RowBytes())
	for j, x := range v {
		binary.LittleEndian.PutUint32(raw[j*4:], math.Float32bits(x))
	}
}

// Range returns the table's memory region.
func (t *Table) Range() memspace.Range { return t.region.Range }

// AggOp selects the reduction operator; the APU's ALU supports several
// (paper: "the ALU is enhanced to support various aggregation
// operators (e.g., max/min/inner product)").
type AggOp int

const (
	// AggSum is the standard embedding-bag sum.
	AggSum AggOp = iota
	// AggMax is elementwise max.
	AggMax
	// AggMin is elementwise min.
	AggMin
	// AggDot is a weighted sum (inner product with per-item weights).
	AggDot
)

// String names the operator.
func (o AggOp) String() string {
	switch o {
	case AggSum:
		return "sum"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggDot:
		return "dot"
	default:
		return fmt.Sprintf("agg(%d)", int(o))
	}
}

// ReduceRowInto folds row i of the table into acc under op without
// materializing the row: values decode straight from the backing bytes,
// so the arithmetic is bit-identical to
// Reduce(op, acc, t.Row(i), weight, first) while allocating nothing.
// This is the gather hot path — Row's per-call []float32 was the bulk
// of fig13's ~6.9M allocations per run.
//
// Each acc[j] is its own accumulator and takes one operation per call,
// so an element folds a query's rows in trace order and is never
// reassociated. The sum fold steps eight elements at a time.
func (t *Table) ReduceRowInto(op AggOp, acc []float32, i int, weight float32, first bool) {
	raw := t.region.Slice(t.RowAddr(i), t.RowBytes())
	// Reslicing acc to the decoded width lets the compiler drop the
	// per-element bounds checks in the hot loops below.
	acc = acc[:len(raw)/4]
	switch op {
	case AggSum:
		for len(acc) >= 8 {
			a, r := acc[:8], raw[:32]
			a[0] += math.Float32frombits(binary.LittleEndian.Uint32(r[0:]))
			a[1] += math.Float32frombits(binary.LittleEndian.Uint32(r[4:]))
			a[2] += math.Float32frombits(binary.LittleEndian.Uint32(r[8:]))
			a[3] += math.Float32frombits(binary.LittleEndian.Uint32(r[12:]))
			a[4] += math.Float32frombits(binary.LittleEndian.Uint32(r[16:]))
			a[5] += math.Float32frombits(binary.LittleEndian.Uint32(r[20:]))
			a[6] += math.Float32frombits(binary.LittleEndian.Uint32(r[24:]))
			a[7] += math.Float32frombits(binary.LittleEndian.Uint32(r[28:]))
			acc, raw = acc[8:], raw[32:]
		}
		for j := range acc {
			acc[j] += math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:]))
		}
	case AggDot:
		for j := range acc {
			acc[j] += math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:])) * weight
		}
	case AggMax:
		for j := range acc {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:]))
			if first || v > acc[j] {
				acc[j] = v
			}
		}
	case AggMin:
		for j := range acc {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:]))
			if first || v < acc[j] {
				acc[j] = v
			}
		}
	default:
		panic("dlrm: unknown aggregation operator")
	}
}

// Reduce folds vec into acc under op. weight applies to AggDot (and is
// ignored elsewhere). first marks the initial fold.
func Reduce(op AggOp, acc, vec []float32, weight float32, first bool) {
	switch op {
	case AggSum:
		for i, v := range vec {
			acc[i] += v
		}
	case AggDot:
		for i, v := range vec {
			acc[i] += v * weight
		}
	case AggMax:
		for i, v := range vec {
			if first || v > acc[i] {
				acc[i] = v
			}
		}
	case AggMin:
		for i, v := range vec {
			if first || v < acc[i] {
				acc[i] = v
			}
		}
	default:
		panic("dlrm: unknown aggregation operator")
	}
}
