package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(99)
	const buckets, n = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(1000)
	seen := make([]bool, 1000)
	for _, v := range p {
		if v < 0 || v >= 1000 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(5)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Fatal("shuffle lost elements")
	}
	_ = orig
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(123)
	const n = 10000
	z := NewZipf(r, n, 0.99)
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= n {
			t.Fatalf("zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Item 0 must be far hotter than the median item, and the top-1%
	// of items must absorb a large share of accesses for theta=0.99.
	if counts[0] < draws/100 {
		t.Errorf("hottest item got %d draws, expected heavy skew", counts[0])
	}
	topShare := 0
	for k, c := range counts {
		if k < n/100 {
			topShare += c
		}
	}
	if float64(topShare)/draws < 0.5 {
		t.Errorf("top 1%% of keys got %.2f of draws, want > 0.5 under theta=0.99",
			float64(topShare)/draws)
	}
}

func TestZipfUniformLikeTail(t *testing.T) {
	// Low theta approaches uniform: top 1% should receive close to ~1-10%.
	r := NewRNG(77)
	z := NewZipf(r, 10000, 0.01)
	const draws = 100000
	top := 0
	for i := 0; i < draws; i++ {
		if z.Next() < 100 {
			top++
		}
	}
	if float64(top)/draws > 0.1 {
		t.Errorf("theta=0.01 top-1%% share %.3f, want near uniform", float64(top)/draws)
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(1)
	for _, bad := range []float64{0, 1, 1.5, -0.2} {
		func() {
			defer func() { recover() }()
			NewZipf(r, 10, bad)
			t.Errorf("NewZipf(theta=%v) did not panic", bad)
		}()
	}
}

// TestZipfMemoizedZetaBitIdentical checks that a generator built from
// the memoized normalization constant is the one a fresh sum builds:
// same zetaN bits and the same draws, for a first (memo-filling) and a
// second (memo-hit) construction of one (n, theta).
func TestZipfMemoizedZetaBitIdentical(t *testing.T) {
	const n, theta = 12345, 0.77
	fresh := zeta(n, theta)
	for round := 0; round < 2; round++ {
		z := NewZipf(NewRNG(9), n, theta)
		if math.Float64bits(z.zetaN) != math.Float64bits(fresh) {
			t.Fatalf("round %d: zetaN %v, fresh sum %v", round, z.zetaN, fresh)
		}
		ref := &Zipf{rng: NewRNG(9), n: n, theta: theta, zetaN: fresh, alpha: z.alpha, eta: z.eta, thresh: z.thresh}
		for i := 0; i < 1000; i++ {
			if a, b := z.Next(), ref.Next(); a != b {
				t.Fatalf("round %d draw %d: %d, want %d", round, i, a, b)
			}
		}
	}
}

func TestZetaMemoBounded(t *testing.T) {
	for i := 0; i < 2*zetaMemoMax; i++ {
		zetaMemoized(uint64(i+1), 0.5)
	}
	zetaMemo.Lock()
	n := len(zetaMemo.m)
	zetaMemo.Unlock()
	if n > zetaMemoMax {
		t.Fatalf("memo holds %d entries, cap %d", n, zetaMemoMax)
	}
}
