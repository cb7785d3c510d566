// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Determinism matters here more than statistical quality: every
// disambiguation scheme (Eager, Lazy, Bulk) must observe exactly the same
// logical workload, so workload generation must be reproducible from a seed
// and independent of Go's global math/rand state. The generator is
// xoshiro256**, seeded via splitmix64, following the reference constructions
// by Blackman and Vigna.
package rng

// Rand is a deterministic random number generator. The zero value is not
// valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	// splitmix64 seeding, as recommended for xoshiro.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A state of all zeros would be a fixed point; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Fork returns a new generator derived from r's stream. It is used to give
// each thread or task its own independent stream so that the amount of
// randomness one task consumes does not perturb the others.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

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

// Uint32 returns the high 32 bits of the next value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n") //bulklint:invariant mirrors the documented math/rand.Intn contract
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a value in [0, n), uniformly. It panics if n == 0.
//
// It is threshold rejection: a draw v below (2^64 - n) mod n, the short
// remainder that would bias v mod n, is rejected, and v mod n is
// returned otherwise. Two shortcuts return exactly that loop's values
// from the same stream, one division per draw at most:
//
//   - The threshold is below n, so a draw v >= n is accepted without
//     computing it. A draw v < n that passes is its own remainder.
//   - For a power of two the threshold is 0 and v mod n is v & (n-1),
//     so no draw is rejected and none divides.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n") //bulklint:invariant an empty range has no uniform value to return
	}
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	for {
		v := r.Uint64()
		if v >= n {
			return v % n
		}
		if v >= -n%n { // -n % n is (2^64 - n) % n
			return v
		}
	}
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n), Fisher–Yates shuffled.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from a geometric distribution with mean m
// (m >= 1): the number of trials until first success with p = 1/m, i.e. a
// positive integer. Used for footprint and run-length sampling.
func (r *Rand) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1.0 / m
	// Inverse transform sampling.
	u := r.Float64()
	if u >= 1 {
		u = 0.9999999999999999
	}
	// ceil(ln(1-u)/ln(1-p))
	n := 1
	prob := p
	cum := p
	for cum < u && n < 1<<20 {
		prob *= 1 - p
		cum += prob
		n++
	}
	return n
}

// NormalishInt returns a sample around mean with +-spread, clamped to be at
// least min. It uses the average of two uniforms (triangular distribution),
// which is symmetric and cheap; exact distribution shape does not matter for
// the workloads, only mean and spread.
func (r *Rand) NormalishInt(mean, spread, min int) int {
	if spread <= 0 {
		if mean < min {
			return min
		}
		return mean
	}
	d := (r.Float64() + r.Float64() - 1) * float64(spread)
	v := mean + int(d)
	if v < min {
		return min
	}
	return v
}
