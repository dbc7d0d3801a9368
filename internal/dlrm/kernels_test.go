package dlrm

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// The two inference kernels, ReduceRowInto's sum fold and MLP.Forward,
// are unrolled; these tests hold them to the naive loops below, bit for
// bit. Each accumulator must see the same operands in the same order as
// in the naive loop.

// refFold is the naive sum fold: row i of t added into acc in index
// order.
func refFold(acc []float32, t *Table, i int) {
	for j, v := range t.Row(i) {
		acc[j] += v
	}
}

// refLogit is the naive MLP: one hidden unit at a time, each summing
// its weighted inputs in index order, its ReLU term added in unit order.
func refLogit(m *MLP, x []float32) float32 {
	var out float32
	for i := 0; i < m.Hidden; i++ {
		acc := m.b1[i]
		for j := 0; j < m.Dim; j++ {
			acc += m.w1[i*m.Dim+j] * x[j]
		}
		if acc > 0 {
			out += acc * m.w2[i]
		}
	}
	return out + m.b2
}

// sameBits compares two floats bit for bit, except that any NaN matches
// any NaN: which operand's payload an x86 add hands on depends on
// operand order the compiler may commute, so payloads are not part of
// the contract.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkForward compares Forward and its logit with the naive MLP.
func checkForward(t *testing.T, m *MLP, x []float32) {
	t.Helper()
	want := refLogit(m, x)
	if got := m.logit(x); !sameBits(got, want) {
		t.Fatalf("dim %d hidden %d: logit %v (%#x), want %v (%#x)",
			m.Dim, m.Hidden, got, math.Float32bits(got), want, math.Float32bits(want))
	}
	wantScore := float32(1 / (1 + math.Exp(-float64(want))))
	score, flops := m.Forward(x)
	if !sameBits(score, wantScore) {
		t.Fatalf("dim %d hidden %d: score %v, want %v", m.Dim, m.Hidden, score, wantScore)
	}
	if flops != m.Hidden*(2*m.Dim+2)+4 {
		t.Fatalf("dim %d hidden %d: flops %d", m.Dim, m.Hidden, flops)
	}
}

func TestForwardMatchesReference(t *testing.T) {
	rng := sim.NewRNG(21)
	for _, hidden := range []int{1, 3, 4, 5, 31, 32, 33} {
		for _, dim := range []int{1, 7, 64} {
			m := NewMLP(dim, hidden, rng)
			// NewMLP leaves the biases zero; nonzero ones put some
			// units on each side of the ReLU.
			for i := range m.b1 {
				m.b1[i] = float32(rng.Float64() - 0.5)
			}
			m.b2 = float32(rng.Float64() - 0.5)
			x := make([]float32, dim)
			for k := 0; k < 50; k++ {
				for j := range x {
					x[j] = float32(rng.Float64()*4 - 2)
				}
				checkForward(t, m, x)
			}
		}
	}
}

// TestInferScoresPinned folds the bits of 20k LH-shape scores into one
// checksum. The constant was recorded on the one-unit-at-a-time MLP and
// the element-at-a-time fold, so it holds the unrolled kernels to the
// scores every figure was computed from.
func TestInferScoresPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Compilers for arm64, ppc64le and s390x may fuse the MLP's
		// multiply-adds, which rounds once where amd64 rounds twice.
		t.Skip("scores pinned on amd64")
	}
	const want = 0xceb029bdab9727ad
	m, ds := lhModel(1)
	var q Query
	var sc InferScratch
	var sum uint64
	for i := 0; i < 20000; i++ {
		ds.NextQueryInto(&q)
		score, _, _ := m.InferInto(q, AggSum, &sc)
		sum = foldScore(sum, score)
	}
	if sum != want {
		t.Fatalf("score checksum %#x, want %#x", sum, uint64(want))
	}
}

// fuzzFloats reads the fuzzer's bytes as a cyclic stream of float32
// bit patterns; with fewer than four bytes it yields small integers.
func fuzzFloats(raw []byte) func(k int) float32 {
	return func(k int) float32 {
		if len(raw) < 4 {
			return float32(k%5 - 2)
		}
		off := (k * 4) % (len(raw) - 3)
		return math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
	}
}

func FuzzFoldMatchesReference(f *testing.F) {
	var specials []byte
	for _, v := range []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), // subnormals
		math.MaxFloat32, 1.5, -2.25, 1e-30, -3e30,
	} {
		specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(v))
	}
	f.Add(uint8(64), uint8(32), specials)
	f.Add(uint8(9), uint8(5), specials[4:])
	f.Add(uint8(8), uint8(4), []byte{0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, dim, hidden uint8, raw []byte) {
		d, h := int(dim)%72+1, int(hidden)%40+1
		val := fuzzFloats(raw)
		k := 0
		next := func() float32 { k++; return val(k - 1) }

		tb := NewTable(memspace.New(), "t", 3, d, memspace.KindDRAM, sim.NewRNG(1))
		row := make([]float32, d)
		for i := 0; i < tb.Rows; i++ {
			for j := range row {
				row[j] = next()
			}
			tb.SetRow(i, row)
		}
		got := make([]float32, d)
		for j := range got {
			got[j] = next()
		}
		want := append([]float32(nil), got...)
		for _, i := range []int{2, 0, 1, 2} {
			tb.ReduceRowInto(AggSum, got, i, 1, false)
			refFold(want, tb, i)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("dim %d: fold of row %d: [%d] %v (%#x), want %v (%#x)",
						d, i, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
				}
			}
		}

		m := NewMLP(d, h, sim.NewRNG(2))
		for _, w := range [][]float32{m.w1, m.b1, m.w2} {
			for i := range w {
				w[i] = next()
			}
		}
		m.b2 = next()
		checkForward(t, m, got)
	})
}

// BenchmarkInferInto times BenchInferInto for go test -bench A/B runs.
func BenchmarkInferInto(b *testing.B) {
	b.ReportAllocs()
	BenchInferInto(b.N)
}
