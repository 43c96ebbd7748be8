package core

import (
	"fmt"
	"math"
	"sort"
)

// SparseLOSS implements the algorithm the paper sketches as future
// work at the end of Section 4: run LOSS on a sparse graph instead of
// the complete digraph. Requests are first coalesced into
// representative cities; each city then gets only a logarithmic
// number of out-edges, generated by exploring nearby sections in
// weave order. Because the sparse graph usually cannot complete a
// single connected path, the greedy selection runs until it is stuck,
// each resulting partial path is contracted into a single city, and
// the process repeats on the smaller graph — "producing partial paths
// of short edges, and then linking the partial paths into a single
// connected path" — finishing densely once the graph is small.
type SparseLOSS struct {
	// Threshold is the coalescing distance in segments;
	// DefaultCoalesceThreshold when zero.
	Threshold int
	// DenseLimit is the city count at or below which the algorithm
	// switches to the complete digraph; 192 when zero.
	DenseLimit int
}

// NewSparseLOSS returns the variant with the paper's coalescing
// threshold and a dense finish below 192 cities.
func NewSparseLOSS() SparseLOSS { return SparseLOSS{} }

// Name returns "LOSS-SPARSE".
func (SparseLOSS) Name() string { return "LOSS-SPARSE" }

// sparseCity is a contracted partial path: a fixed sequence of
// request groups entered at in and exited from out.
type sparseCity struct {
	groups []group
	in     int // entry segment (first group's first segment)
	out    int // head position after the last group's last segment
}

// Schedule runs the iterated sparse contraction.
func (sl SparseLOSS) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if len(p.Requests) == 0 {
		return Plan{}, nil
	}
	threshold := sl.Threshold
	if threshold <= 0 {
		threshold = DefaultCoalesceThreshold
	}
	denseLimit := sl.DenseLimit
	if denseLimit <= 0 {
		denseLimit = 192
	}

	groups := splitAtStart(coalesceByThreshold(p.Requests, threshold), p.Start)
	cities := make([]sparseCity, len(groups))
	for i, g := range groups {
		cities[i] = sparseCity{groups: []group{g}, in: g.first(), out: p.headAfter(g.last())}
	}

	for len(cities) > denseLimit {
		contracted, progressed := sl.sparseRound(p, cities)
		if !progressed {
			break // fall through to the dense finish
		}
		cities = contracted
	}

	// Dense finish: contract what remains with complete-digraph LOSS.
	order, err := sl.densePath(p, cities)
	if err != nil {
		return Plan{}, err
	}
	final := make([]int, 0, len(p.Requests))
	for _, c := range order {
		for _, g := range c.groups {
			final = append(final, g.segs...)
		}
	}
	return Plan{Order: final}, nil
}

// sparseRound builds a sparse candidate graph over the cities, runs
// the greedy loss selection until stuck, and contracts the resulting
// partial paths. progressed is false when no edge could be selected.
func (sl SparseLOSS) sparseRound(p *Problem, cities []sparseCity) (contracted []sparseCity, progressed bool) {
	k := len(cities)
	n := k + 1
	fanout := 4 + int(math.Ceil(math.Log2(float64(n))))

	cand := sl.candidates(p, cities, fanout)
	weights := make(map[int64]float64, n*fanout)
	key := func(i, j int32) int64 { return int64(i)<<32 | int64(j) }
	outSeg := func(i int32) int {
		if i == 0 {
			return p.Start
		}
		return cities[i-1].out
	}
	for i := int32(0); i < int32(n); i++ {
		for _, j := range cand[i] {
			weights[key(i, j)] = p.Cost.LocateTime(outSeg(i), cities[j-1].in)
		}
	}
	s := newLossState(n, func(i, j int32) float64 { return weights[key(i, j)] })
	s.sparseCandidates(cand)
	if s.run(k) == 0 {
		return nil, false
	}

	frags := s.fragments()
	// The fragment containing city 0 contributes its cities in order
	// but city 0 itself is the head start, not a retrieval unit; its
	// successors become the leading contracted city.
	for _, f := range frags {
		var gs []group
		for _, c := range f {
			if c == 0 {
				continue
			}
			gs = append(gs, cities[c-1].groups...)
		}
		if len(gs) == 0 {
			continue
		}
		first := f[0]
		if first == 0 {
			first = f[1]
		}
		last := f[len(f)-1]
		contracted = append(contracted, sparseCity{
			groups: gs,
			in:     cities[first-1].in,
			out:    cities[last-1].out,
		})
	}
	return contracted, true
}

// candidates generates each city's sparse out-edge targets: the
// cities whose entry points lie in the nearest sections, visited in
// weave order from the city's exit position.
func (sl SparseLOSS) candidates(p *Problem, cities []sparseCity, fanout int) [][]int32 {
	view := p.Cost.View()
	params := view.Params()
	n := len(cities) + 1

	// Bucket city entry points by (track, physical section).
	type cell struct{ track, section int }
	entry := make(map[cell][]int32)
	for idx, c := range cities {
		pl := view.Place(c.in)
		cl := cell{pl.Track, pl.PhysSection}
		entry[cl] = append(entry[cl], int32(idx+1))
	}

	// tracksOf lists the concrete tracks of a weave pattern kind
	// relative to track cur, nearest first.
	tracksOf := func(cur int, kind weaveKind) []int {
		if kind == kindOwn {
			return []int{cur}
		}
		curDir := params.TrackDirection(cur)
		var out []int
		for d := 1; d < params.Tracks; d++ {
			for _, t := range []int{cur - d, cur + d} {
				if t < 0 || t >= params.Tracks {
					continue
				}
				co := params.TrackDirection(t) == curDir
				if (kind == kindCo) == co {
					out = append(out, t)
				}
			}
		}
		return out
	}

	cand := make([][]int32, n)
	for i := 0; i < n; i++ {
		out := p.Start
		if i > 0 {
			out = cities[i-1].out
		}
		pl := view.Place(out)
		var lst []int32
		seen := make(map[int32]bool)
	pattern:
		for _, it := range weavePattern(params, pl.Track, pl.PhysSection) {
			for _, t := range tracksOf(pl.Track, it.kind) {
				for _, j := range entry[cell{t, it.sect}] {
					if int(j) == i || seen[j] {
						continue
					}
					seen[j] = true
					lst = append(lst, j)
					if len(lst) >= fanout {
						break pattern
					}
				}
			}
		}
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		cand[i] = lst
	}
	return cand
}

// densePath orders the remaining cities with complete-digraph LOSS.
func (sl SparseLOSS) densePath(p *Problem, cities []sparseCity) ([]sparseCity, error) {
	k := len(cities)
	if k <= 1 {
		return cities, nil
	}
	n := k + 1
	if n > maxLOSSCities {
		return nil, fmt.Errorf("core: sparse LOSS dense finish has %d cities (max %d)", n, maxLOSSCities)
	}
	// The dense matrix layout of lossPath: entry (i, j) at i*k+j-1.
	w := make([]float64, n*k)
	for i := 0; i < n; i++ {
		out := p.Start
		if i > 0 {
			out = cities[i-1].out
		}
		for j := 1; j < n; j++ {
			if i == j {
				continue
			}
			w[i*k+j-1] = p.Cost.LocateTime(out, cities[j-1].in)
		}
	}
	s := newLossState(n, nil)
	s.w = w
	s.denseCandidates()
	if got := s.run(k); got != k {
		return nil, fmt.Errorf("core: sparse LOSS dense finish stuck at %d/%d edges", got, k)
	}
	order := make([]sparseCity, 0, k)
	for c := s.next[0]; c >= 0; c = s.next[c] {
		order = append(order, cities[c-1])
	}
	if len(order) != k {
		return nil, fmt.Errorf("core: sparse LOSS produced a broken path (%d of %d cities)", len(order), k)
	}
	return order, nil
}
