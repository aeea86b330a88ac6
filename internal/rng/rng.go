// Package rng provides the deterministic random-number substrate used by
// every generator and simulator in netmodel.
//
// All topology generation in this repository is seeded and reproducible:
// the same seed always yields the same topology, bit for bit, on every
// platform. To guarantee that, the package implements its own generator
// (xoshiro256**, seeded through splitmix64) instead of relying on
// math/rand's unspecified evolution across Go releases, and builds the
// distributions and samplers the modeling literature needs on top of it:
// exponential, Pareto, Zipf, normal and Poisson variates, alias-method
// sampling for static discrete distributions, and a Fenwick-tree sampler
// for dynamic weighted sampling (the inner loop of every preferential-
// attachment generator).
package rng

import (
	"errors"
	"math"
)

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is not safe for concurrent use; create one per goroutine.
type Rand struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded with seed. Any seed, including zero, is
// valid: the state is expanded through splitmix64 so no all-zero state can
// occur.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the state derived from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = mix64(sm)
	}
	r.hasGauss = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// mix64 is the splitmix64 finalizer, the avalanche function behind both
// seeding and sub-stream derivation.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is derived from r's current
// state and the stream index i. The derivation is a pure function: it
// does not advance r, and calling Split with the same parent state and
// index always yields the same child, on every platform.
//
// Derivation: the parent's four state words are folded through the
// splitmix64 finalizer together with the index (each step keyed by a
// distinct odd constant), producing a 64-bit child seed that is expanded
// through the same splitmix64 seeding as New. Children of distinct
// indices, and children versus the parent, are therefore independently
// seeded xoshiro256** streams — the standard hash-derived splitting
// construction, which is what makes sharded generation deterministic:
// shard i of a run seeded with s always sees stream Split(i) of s,
// regardless of how many workers execute the shards or in which order.
func (r *Rand) Split(i uint64) *Rand {
	c := &Rand{}
	r.SplitInto(c, i)
	return c
}

// SplitInto seeds child exactly as Split(i) would, without allocating.
// It is the hot-loop form: kernels that derive one stream per item can
// reuse a single child generator per worker.
func (r *Rand) SplitInto(child *Rand, i uint64) {
	h := mix64(r.s[0] ^ 0xa0761d6478bd642f)
	h = mix64(h ^ r.s[1])
	h = mix64(h ^ r.s[2])
	h = mix64(h ^ r.s[3])
	h = mix64(h ^ mix64(i^0xe7037ed1a0b428db))
	child.Seed(h)
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0,1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0,n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of the 128-bit product.
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of x and y.
func mul64(x, y uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1, w2 := t&mask, t>>32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, via Fisher-Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponential variate with rate lambda (mean 1/lambda).
// It panics if lambda <= 0.
func (r *Rand) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1], avoiding log(0).
	return -math.Log(1-u) / lambda
}

// Pareto returns a Pareto variate with minimum xm and shape alpha:
// P(X > x) = (xm/x)^alpha for x >= xm. It panics unless xm > 0 and
// alpha > 0.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto requires xm > 0 and alpha > 0")
	}
	u := r.Float64()
	return xm / math.Pow(1-u, 1/alpha)
}

// Normal returns a normal variate with the given mean and standard
// deviation, using Box-Muller with caching.
func (r *Rand) Normal(mean, stddev float64) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return mean + stddev*r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return mean + stddev*u*f
}

// Poisson returns a Poisson variate with the given mean. For small means
// it uses Knuth's product method; for large means a normal approximation
// with continuity correction, which is accurate to within the needs of
// workload generation.
func (r *Rand) Poisson(mean float64) int {
	return r.PoissonExp(mean, math.Exp(-mean))
}

// PoissonExp is Poisson for callers that draw repeatedly at one mean:
// l must be math.Exp(-mean), which the small-mean method needs and the
// caller can compute once. The draws are Poisson's, bit for bit.
func (r *Rand) PoissonExp(mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := r.Normal(mean, math.Sqrt(mean))
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// Zipf samples integers in [1,n] with probability proportional to
// 1/rank^s. It precomputes the CDF once; use NewZipf for repeated
// sampling.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over ranks 1..n with exponent s >= 0.
func NewZipf(r *Rand, n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, errors.New("rng: Zipf requires n > 0")
	}
	if s < 0 {
		return nil, errors.New("rng: Zipf requires s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}, nil
}

// Next returns the next Zipf-distributed rank in [1,n].
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
