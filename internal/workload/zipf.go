package workload

import (
	"math"
	"math/rand/v2"
)

// Zipf draws ranks 0..n-1 with Zipfian popularity of exponent theta, using
// the rejection-free method of Gray et al. ("Quickly Generating
// Billion-Record Synthetic Databases", SIGMOD '94) — the same construction
// YCSB uses. Unlike math/rand's Zipf it supports 0 <= theta < 1, which is
// where serving benchmarks live (YCSB's default skew is theta = 0.99).
// theta = 0 degenerates to the uniform distribution.
//
// Rank 0 is the most popular key. Key namespaces that want the hot ranks
// scattered (rather than clustered at the low end) should mix the rank
// through a hash — the sharded lock table already does exactly that for
// shard routing, so a skewed rank stream contends on one *shard* only as
// much as it contends on one *key*.
//
// Draws are allocation-free; construction is O(n) (the harmonic sum).
type Zipf struct {
	rng     *rand.Rand
	n       uint64
	uniform bool

	// Gray's constants: zetan is the generalized harmonic number
	// H(n, theta), half is 1/2^theta, and alpha/eta shape the closed-form
	// inverse of the tail CDF.
	zetan float64
	half  float64
	alpha float64
	eta   float64
}

// NewZipf builds a generator over ranks [0, n) with exponent theta,
// seeded deterministically. theta outside [0, 1) is clamped: negative
// means uniform, and values at or above 1 are pulled just under it (Gray's
// closed form needs theta < 1; 0.999… is indistinguishable from 1 at any
// realistic n).
func NewZipf(n uint64, theta float64, seed uint64) *Zipf {
	if n == 0 {
		n = 1
	}
	z := &Zipf{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		n:   n,
	}
	if theta <= 0 {
		z.uniform = true
		return z
	}
	if theta >= 1 {
		theta = 1 - 1e-9
	}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.half = math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// Next returns the next rank.
func (z *Zipf) Next() uint64 {
	if z.uniform {
		return z.rng.Uint64N(z.n)
	}
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
