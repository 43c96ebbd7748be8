// Package workload generates the request sets the experiments
// schedule. The paper's simulation study (Section 5) draws uniformly
// distributed segment numbers from lrand48; the uniform generator
// reproduces that exactly. Zipf and clustered generators extend the
// study to the skewed reference patterns real database workloads
// exhibit, where structure-aware schedulers behave differently.
package workload

import (
	"fmt"
	"math"
	"sort"

	"serpentine/internal/rand48"
)

// Generator produces batches of distinct segment numbers in
// [0, Segments).
type Generator interface {
	// Name identifies the distribution in experiment output.
	Name() string
	// Batch returns n distinct segment numbers. It panics if n
	// exceeds the tape's segment count.
	Batch(n int) []int
	// Segments returns the address-space size.
	Segments() int
}

// distinct draws values from pick() until n distinct ones have been
// collected.
func distinct(n, total int, pick func() int) []int {
	if n > total {
		panic(fmt.Sprintf("workload: batch of %d exceeds %d segments", n, total))
	}
	seen := make(map[int]struct{}, n)
	out := make([]int, 0, n)
	for len(out) < n {
		v := pick()
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Uniform draws segments uniformly at random, the paper's workload:
// "pseudorandomly generated segment numbers range from 0 to 622057".
type Uniform struct {
	rng   *rand48.Source
	total int
}

// NewUniform returns a uniform generator over total segments, seeded
// exactly as the paper seeds lrand48.
func NewUniform(total int, seed int64) *Uniform {
	return &Uniform{rng: rand48.New(seed), total: total}
}

// Name returns "uniform".
func (u *Uniform) Name() string { return "uniform" }

// Segments returns the address-space size.
func (u *Uniform) Segments() int { return u.total }

// Batch returns n distinct uniform segment numbers.
func (u *Uniform) Batch(n int) []int {
	return distinct(n, u.total, func() int { return u.rng.Intn(u.total) })
}

// Next returns one segment number, for callers that also need the
// initial head position (the paper's sets are 1+N numbers, the first
// being the head position).
func (u *Uniform) Next() int { return u.rng.Intn(u.total) }

// Zipf draws segments with a Zipf-distributed popularity over
// scattered fixed-size extents, modeling a database where some
// relations are much hotter than others. Skew 0 degenerates to
// uniform; the classic "80/20" shape is near skew 0.86.
type Zipf struct {
	rng    *rand48.Source
	total  int
	extent int
	cum    []float64 // cumulative extent probabilities
	perm   []int     // extent placement on tape
}

// NewZipf returns a Zipf generator with the given skew (s > 0) over
// extents of the given size in segments (0 selects 4096). Extent
// popularity ranks are scattered across the tape so that hot data is
// not all physically adjacent.
func NewZipf(total int, seed int64, skew float64, extent int) *Zipf {
	if extent <= 0 {
		extent = 4096
	}
	if extent > total {
		extent = total
	}
	rng := rand48.New(seed)
	n := (total + extent - 1) / extent
	cum := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), skew)
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &Zipf{rng: rng, total: total, extent: extent, cum: cum, perm: rng.Perm(n)}
}

// Name returns "zipf".
func (z *Zipf) Name() string { return "zipf" }

// Segments returns the address-space size.
func (z *Zipf) Segments() int { return z.total }

// Batch returns n distinct Zipf-popular segment numbers.
func (z *Zipf) Batch(n int) []int {
	return distinct(n, z.total, func() int {
		u := z.rng.Drand48()
		rank := sort.SearchFloat64s(z.cum, u)
		if rank >= len(z.perm) {
			rank = len(z.perm) - 1
		}
		ext := z.perm[rank]
		lo := ext * z.extent
		width := z.extent
		if lo+width > z.total {
			width = z.total - lo
		}
		return lo + z.rng.Intn(width)
	})
}

// Clustered draws segments in bursts around random cluster centers,
// modeling correlated retrievals (a query touching one relation pulls
// many nearby chunks).
type Clustered struct {
	rng      *rand48.Source
	total    int
	perBurst int
	spread   int
}

// NewClustered returns a clustered generator: batches are built from
// bursts of perBurst requests (0 selects 8) spread across a window of
// spread segments (0 selects 2048) around each uniformly chosen
// center.
func NewClustered(total int, seed int64, perBurst, spread int) *Clustered {
	if perBurst <= 0 {
		perBurst = 8
	}
	if spread <= 0 {
		spread = 2048
	}
	return &Clustered{rng: rand48.New(seed), total: total, perBurst: perBurst, spread: spread}
}

// Name returns "clustered".
func (c *Clustered) Name() string { return "clustered" }

// Segments returns the address-space size.
func (c *Clustered) Segments() int { return c.total }

// Batch returns n distinct clustered segment numbers.
func (c *Clustered) Batch(n int) []int {
	center := c.rng.Intn(c.total)
	left := 0
	return distinct(n, c.total, func() int {
		if left == 0 {
			center = c.rng.Intn(c.total)
			left = c.perBurst
		}
		left--
		v := center + c.rng.Intn(c.spread) - c.spread/2
		if v < 0 {
			v = -v
		}
		if v >= c.total {
			v = 2*c.total - 2 - v
		}
		if v < 0 || v >= c.total {
			v = c.rng.Intn(c.total)
		}
		return v
	})
}
