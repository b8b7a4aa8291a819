// Package rng provides deterministic random number utilities for
// workload synthesis and experiments.
//
// Every stochastic component in the repository draws from an explicit
// *Source seeded by the caller, so that all experiments are reproducible
// bit-for-bit. Sources can be split into independent named streams
// (arrivals, sizes, runtimes, ...) so that changing how one stream is
// consumed does not perturb the others.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Source is a deterministic random source with distribution helpers.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent Source from s keyed by name. Two splits
// with different names produce uncorrelated streams; the same name always
// produces the same stream for the same parent seed.
func (s *Source) Split(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	// Mix the parent stream into the derived seed so distinct parents
	// yield distinct children even for equal names.
	return New(int64(h.Sum64()) ^ s.Int63())
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform float in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// LogNormal returns a log-normally distributed value where the
// underlying normal has mean mu and standard deviation sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.r.NormFloat64()*sigma + mu)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Weighted holds a discrete distribution over arbitrary choices. The
// zero value is not usable; construct with NewWeighted.
type Weighted struct {
	cum []float64 // cumulative weights, strictly increasing
}

// NewWeighted builds a discrete distribution from non-negative weights.
// At least one weight must be positive; it panics otherwise.
func NewWeighted(weights []float64) *Weighted {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN weight")
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: all weights zero")
	}
	return &Weighted{cum: cum}
}

// Draw returns the index of a choice sampled in proportion to its weight.
func (w *Weighted) Draw(s *Source) int {
	total := w.cum[len(w.cum)-1]
	x := s.Float64() * total
	return sort.SearchFloat64s(w.cum, x+1e-300) // strictly-greater search
}

// Len returns the number of choices.
func (w *Weighted) Len() int { return len(w.cum) }

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^skew — the classic model for user activity in batch
// workloads (a few users submit most jobs).
type Zipf struct {
	w *Weighted
}

// NewZipf builds a Zipf distribution over n ranks with the given skew
// (s >= 0; s = 0 is uniform). It panics if n <= 0.
func NewZipf(n int, skew float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf needs n > 0")
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), skew)
	}
	return &Zipf{w: NewWeighted(weights)}
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw(s *Source) int { return z.w.Draw(s) }
