// Package gen provides deterministic synthetic graph generators that stand
// in for the paper's datasets (Table I). Two families matter for the study:
//
//   - Social networks (Twitter MPI, Friendster): power-law degree
//     distributions, highly reciprocal hubs (in-hubs are out-hubs), and a
//     tightly connected high-degree core. Generated by SocialNetwork, a
//     reciprocal R-MAT.
//   - Web graphs (SK-Domain, UK-Union, ClueWeb09, ...): power-law
//     in-degrees with strong *asymmetric* in-hubs, bounded out-degrees, and
//     host-level link locality. Generated by WebGraph (a copying model with
//     host blocks).
//
// All generators are deterministic for a given seed; randomness comes from
// a local xoshiro256** implementation, seeded by splitmix64, so results
// are stable across Go releases. TestGeneratorsPinned pins every
// generator's output by CRC32C.
package gen

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is not safe for concurrent use.
type RNG struct {
	s xoshiro
}

// xoshiro is the xoshiro256** state. Its methods take and return it by
// value, so a hot loop can keep the four words in registers and store them
// back once.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	var w [4]uint64
	sm := seed
	for i := range w {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		w[i] = z ^ (z >> 31)
	}
	return &RNG{s: xoshiro{w[0], w[1], w[2], w[3]}}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next returns the advanced state and the next 64 random bits.
func (x xoshiro) next() (xoshiro, uint64) {
	result := rotl(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = rotl(x.s3, 45)
	return x, result
}

// unitFloat maps the top 53 bits of r to [0, 1). The signed conversion is
// exact below 2^53, where it equals the unsigned one without its sign
// branch.
func unitFloat(r uint64) float64 {
	return float64(int64(r>>11)) / (1 << 53)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	var out uint64
	r.s, out = r.s.next()
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return unitFloat(r.Uint64())
}

// Uint32n returns a uniform uint32 in [0, n). n must be > 0.
func (r *RNG) Uint32n(n uint32) uint32 {
	// Lemire's multiply-shift rejection-free-enough bound.
	return uint32((uint64(uint32(r.Uint64())) * uint64(n)) >> 32)
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Shuffle permutes xs uniformly at random (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples integers in [1, max] with probability ∝ 1/k^s using inverse
// transform over a precomputed CDF. It produces the heavy-tailed degree
// sequences characteristic of real-world graphs.
type Zipf struct {
	cdf []float64
	// guide[k] is the first index whose CDF value is at least k/len(guide),
	// the binary search's answer for that u. len(guide) is a power of two,
	// so u·len(guide) is exact and its floor names the bucket u falls in.
	guide []int32
	rng   *RNG
}

// NewZipf builds a Zipf sampler over [1, max] with exponent s (> 0). A max
// below 1 is taken as 1.
func NewZipf(rng *RNG, s float64, max int) *Zipf {
	if max < 1 {
		max = 1
	}
	cdf := make([]float64, max)
	sum := 0.0
	for k := 1; k <= max; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	guide := make([]int32, 1<<bits.Len(uint(max-1)))
	i := 0
	for k := range guide {
		u := float64(k) / float64(len(guide))
		for i < max-1 && cdf[i] < u {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, rng: rng}
}

// Next returns a sample in [1, max]: the first index whose CDF value is at
// least a uniform u, found by a forward scan from u's guide entry. The
// scan stops at the last index, as a binary search over [0, max-1] would.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	i := int(z.guide[int(u*float64(len(z.guide)))])
	last := len(z.cdf) - 1
	for i < last && z.cdf[i] < u {
		i++
	}
	return i + 1
}
