package sim

import (
	"math"
	"sync"
)

// RNG is a small, fast, deterministic random number generator
// (splitmix64 seeding a xoshiro256** core). Every stochastic choice in
// the simulator draws from an explicitly seeded RNG so experiments are
// bit-for-bit reproducible.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf generates Zipf-distributed values in [0, n) with skew parameter
// theta in (0, 1) — the paper's KVS workloads use theta = 0.9/0.99
// YCSB-style skew. The implementation is the standard YCSB zipfian
// generator (Gray et al., "Quickly Generating Billion-Record Synthetic
// Databases"). Construction is O(n) to compute the harmonic
// normalization constant, once per (n, theta) per process (see
// zetaMemo); Next is O(1).
type Zipf struct {
	rng    *RNG
	n      float64
	theta  float64
	alpha  float64
	zetaN  float64
	eta    float64
	thresh float64 // 1 + 0.5^theta
}

// NewZipf creates a Zipf generator over [0, n) with exponent theta in
// (0, 1). n must be >= 1. Item 0 is the hottest.
func NewZipf(rng *RNG, n uint64, theta float64) *Zipf {
	if n < 1 {
		panic("sim: Zipf with n < 1")
	}
	if theta <= 0 || theta >= 1 {
		panic("sim: Zipf theta must be in (0, 1)")
	}
	z := &Zipf{rng: rng, n: float64(n), theta: theta}
	zeta2 := zeta(2, theta)
	z.zetaN = zetaMemoized(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetaN)
	z.thresh = 1 + math.Pow(0.5, theta)
	return z
}

// zetaMemo holds zeta(n, theta) for the generators built so far.
// Every sweep point over one key space builds a Zipf of the same
// (n, theta), and the sum costs n Pow calls (2^18 per quick KVS point).
// The memo stops growing at zetaMemoMax entries.
var zetaMemo struct {
	sync.Mutex
	m map[zetaKey]float64
}

type zetaKey struct {
	n     uint64
	theta float64
}

const zetaMemoMax = 64

// zetaMemoized returns zeta(n, theta), computing it only on the first
// call for (n, theta). The sum is a pure function of its arguments, so
// a memoized value is the bit-identical float.
func zetaMemoized(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	zetaMemo.Lock()
	v, ok := zetaMemo.m[k]
	zetaMemo.Unlock()
	if ok {
		return v
	}
	v = zeta(n, theta)
	zetaMemo.Lock()
	if zetaMemo.m == nil {
		zetaMemo.m = make(map[zetaKey]float64)
	}
	if len(zetaMemo.m) < zetaMemoMax {
		zetaMemo.m[k] = v
	}
	zetaMemo.Unlock()
	return v
}

// zeta computes the generalized harmonic number sum_{i=1..n} i^-theta.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += math.Pow(1/float64(i), theta)
	}
	return sum
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < z.thresh {
		return 1
	}
	v := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= uint64(z.n) {
		v = uint64(z.n) - 1
	}
	return v
}
