package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"serpentine/internal/locate"
)

// LOSS is the paper's recommended algorithm for batches larger than
// OPT can handle: the greedy edge-selection heuristic for the
// asymmetric traveling salesman path from Lawler, Lenstra, Rinnooy
// Kan & Shmoys [LLKS85]. Where SLTF greedily extends one path from
// the head position — oblivious to the long edges its choices force
// later — LOSS repeatedly commits the edge at the city whose "lost
// opportunity" would be largest if skipped: the city with the
// greatest difference between its shortest and second-shortest
// remaining edge (on either the incoming or outgoing side). Choosing
// that city's short edge avoids ever being forced onto its much
// longer alternative.
//
// The cost is the O(n²) fill of the locate-time matrix, one O(n²)
// pass over it that keeps each candidate list's shortest edges, and
// selection work proportional to the entries the greedy reads: a list
// is sorted only as deep as it is read, and each round rescores only
// the cities its edge invalidated before a linear argmax over the
// cached losses. The paper notes that coalescing nearby segments into
// a single representative (NewLOSSCoalesced) shrinks the problem
// significantly. On the DLT4000, LOSS delivers 124 random I/Os per
// hour at batch size 96 and 285 per hour at 1024, versus 50 per hour
// unscheduled.
type LOSS struct {
	threshold int
}

// NewLOSS returns the plain LOSS scheduler evaluated in the paper's
// figures (every request is its own city).
func NewLOSS() LOSS { return LOSS{} }

// NewLOSSCoalesced returns LOSS with distance-based coalescing; the
// paper recommends DefaultCoalesceThreshold.
func NewLOSSCoalesced(threshold int) LOSS { return LOSS{threshold: threshold} }

// Name returns "LOSS" or "LOSS-C".
func (l LOSS) Name() string {
	if l.threshold > 0 {
		return "LOSS-C"
	}
	return "LOSS"
}

// maxLOSSCities bounds the dense cost matrix ((k+1)^2 float64s).
// Batches that coalesce to more cities than this fall back to
// SparseLOSS, whose contraction rounds keep memory linear.
const maxLOSSCities = 8192

// lossArena is the reusable working state of one dense LOSS run; see
// arena.go for the pooling rationale.
type lossArena struct {
	state lossState
	segs  []int // request copy backing the group subslices
	grp   []group
	split []group
	order []group
	srcs  []int
	dsts  []int
	w     []float64
}

var lossPool = sync.Pool{New: func() any { return new(lossArena) }}

// Schedule runs the greedy loss selection over the request groups.
func (l LOSS) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if len(p.Requests) == 0 {
		return Plan{}, nil
	}
	a := lossPool.Get().(*lossArena)
	var groups []group
	if l.threshold > 0 {
		a.segs = append(a.segs[:0], p.Requests...)
		sortInts(a.segs)
		a.grp = coalesceSortedRuns(a.segs, l.threshold, a.grp[:0])
		a.split = splitAtStartInto(a.grp, p.Start, a.split[:0])
		groups = a.split
	} else {
		// Plain LOSS: every request is its own city, in request order.
		a.segs = append(a.segs[:0], p.Requests...)
		a.grp = grown(a.grp, len(a.segs))
		for i := range a.segs {
			a.grp[i] = group{segs: a.segs[i : i+1]}
		}
		groups = a.grp
	}
	if len(groups)+1 > maxLOSSCities {
		// The dense matrix would be too large; hand the batch to the
		// sparse-graph variant, which solves the same instance in
		// linear memory (the groups rebuild from p.Requests).
		lossPool.Put(a)
		return SparseLOSS{Threshold: l.threshold}.Schedule(p)
	}
	order, err := lossPath(p, groups, a)
	if err != nil {
		lossPool.Put(a)
		return Plan{}, err
	}
	out := make([]int, 0, len(p.Requests))
	for _, g := range order {
		out = append(out, g.segs...)
	}
	lossPool.Put(a)
	return Plan{Order: out}, nil
}

// lossPrefix is how many entries of every dense candidate list the
// setup pass selects. The greedy reads a median of 3-4 entries per
// list at n = 96..1536; lists read deeper are extended on demand.
const lossPrefix = 16

// lossState carries the incremental machinery of one greedy loss run.
// Cities are numbered 0..n-1: city 0 is the initial head position
// (outgoing side only), the rest are retrieval units. Weights come
// either from the dense matrix w (stride n-1, entry (i, j) at
// i*(n-1)+j-1; column city 0 has no in-edges and needs no column) or
// from weightFn.
//
// Every city has two sides, indexed x = 2c (out-side: candidate
// successors of c) and x = 2c+1 (in-side: candidate predecessors of
// c). Each side's candidate list is sorted ascending by (weight,
// index). Dense lists are materialized lazily: the setup pass keeps
// the first lossPrefix entries and extend sorts in more only when a
// scan reads past them. Sparse lists are complete from the start.
type lossState struct {
	n        int // city count including city 0
	w        []float64
	weightFn func(i, j int32) float64
	next     []int32 // chosen successor per city, -1 if none

	availOut []bool
	availIn  []bool

	// Path fragments by endpoint: tailOf[h] is the last city of the
	// fragment that starts at h, headOf[t] the first city of the
	// fragment that ends at t. Only current endpoints' entries are
	// meaningful.
	tailOf []int32
	headOf []int32

	// Per-side candidate lists with monotone skip pointers: a
	// candidate once invalid never becomes valid again (availability
	// only decreases and path fragments only merge), so the pointers
	// never move backward. more[x] reports unmaterialized entries
	// beyond lists[x].
	lists [][]int32
	ptr   []int32
	more  []bool

	// Cached score per side: the loss, the cheapest valid candidate
	// (pick) and the next valid one (second, -1 if none). A side with
	// no valid candidate, or whose city has taken that side's edge,
	// scores -Inf. A cached score stays exact while pick and second
	// stay valid, because the entries between them are invalid for
	// good. stale holds the sides, flagged in dirty, that an edge
	// invalidated since the last round.
	loss   []float64
	pick   []int32
	second []int32
	dirty  []bool
	stale  []int32

	// Watch lists, one per side z: the sides that read city z/2 as
	// pick or second and go stale when side z is taken. Out-sides
	// watch a candidate's in-side, in-sides its out-side. Linked
	// through wNext/wSide; entries whose side has since moved on are
	// skipped when the list is drained.
	wHead []int32
	wNext []int32
	wSide []int32

	// Bump storage for the dense lists: the prefixes, then every
	// extension. A full block is replaced by a larger one; lists in
	// the old block stay valid, and the arena keeps the larger block.
	back []int32
	used int

	// Setup-pass scratch: prefix weights and the admission threshold
	// (NaN until the prefix fills) per side.
	pw  []float64
	thr []float64
	cnt []int32

	// Extension scratch: candidates past a list's end and their keys,
	// plus radix-sort records.
	cand  []int32
	keys  []float64
	pairs []kvPair
	tmp   []kvPair
}

// newLossState initializes the shared machinery with freshly
// allocated state. weight(i, j) is the cost of traveling from city i
// to city j. The arena path uses lossState.reset instead.
func newLossState(n int, weight func(i, j int32) float64) *lossState {
	s := &lossState{}
	s.reset(n)
	s.weightFn = weight
	return s
}

// reset prepares the state for an n-city run, reusing prior backing
// arrays when they are large enough.
func (s *lossState) reset(n int) {
	s.n = n
	s.w = nil
	s.weightFn = nil
	s.next = grown(s.next, n)
	s.availOut = grown(s.availOut, n)
	s.availIn = grown(s.availIn, n)
	s.tailOf = grown(s.tailOf, n)
	s.headOf = grown(s.headOf, n)
	for c := 0; c < n; c++ {
		s.next[c] = -1
		s.availOut[c] = true
		s.availIn[c] = c != 0 // city 0 never receives an in-edge
		s.tailOf[c] = int32(c)
		s.headOf[c] = int32(c)
	}
	s.lists = grown(s.lists, 2*n)
	s.ptr = grown(s.ptr, 2*n)
	s.more = grown(s.more, 2*n)
	s.loss = grown(s.loss, 2*n)
	s.pick = grown(s.pick, 2*n)
	s.second = grown(s.second, 2*n)
	s.dirty = grown(s.dirty, 2*n)
	s.wHead = grown(s.wHead, 2*n)
	for x := 0; x < 2*n; x++ {
		s.lists[x] = nil
		s.ptr[x] = 0
		s.more[x] = false
		s.dirty[x] = false
		s.wHead[x] = -1
	}
	s.stale = s.stale[:0]
	s.wNext = s.wNext[:0]
	s.wSide = s.wSide[:0]
	s.used = 0
	s.cand = grown(s.cand, n)
	s.keys = grown(s.keys, n)
	s.pairs = grown(s.pairs, n)
	s.tmp = grown(s.tmp, n)
}

// weight returns the cost of traveling from city i to city j (j > 0).
func (s *lossState) weight(i, j int32) float64 {
	if s.w != nil {
		return s.w[int(i)*(s.n-1)+int(j)-1]
	}
	return s.weightFn(i, j)
}

// sideWeight is the weight of the edge between side x's city and
// candidate y.
func (s *lossState) sideWeight(x int, y int32) float64 {
	if x&1 == 0 {
		return s.weight(int32(x>>1), y)
	}
	return s.weight(y, int32(x>>1))
}

// sortIdx orders a candidate list ascending by (key, index): radix
// for long lists, comparison sort for short ones. Both produce the
// identical ordering when lst arrives in ascending index order.
func (s *lossState) sortIdx(lst []int32, key []float64) {
	if n := len(lst); n >= 96 && len(s.pairs) >= n {
		radixSortIdx(lst, key, s.pairs[:n], s.tmp[:n])
		return
	}
	sortIdxByKey(lst, key)
}

// alloc returns m ids of bump storage.
func (s *lossState) alloc(m int) []int32 {
	if len(s.back)-s.used < m {
		s.back = make([]int32, max(2*len(s.back), m))
		s.used = 0
	}
	b := s.back[s.used : s.used+m : s.used+m]
	s.used += m
	return b
}

// denseCandidates installs complete candidate lists: every city pair
// is an edge, as in the paper's primary LOSS formulation. Without a
// dense matrix the weights are first copied out of weightFn.
//
// One row-major pass over the matrix keeps each out-list's and
// in-list's lossPrefix smallest entries; the rest of a list is
// selected on demand by extend. Rows and columns are visited in
// ascending index order, so an entry that ties a kept weight sorts
// after it, as the (weight, index) order requires.
func (s *lossState) denseCandidates() {
	n, k := s.n, s.n-1
	if s.w == nil {
		s.w = make([]float64, n*k)
		for i := 0; i < n; i++ {
			for j := 1; j < n; j++ {
				if j != i {
					s.w[i*k+j-1] = s.weightFn(int32(i), int32(j))
				}
			}
		}
	}
	const P = lossPrefix
	ids := s.alloc(2 * n * P)
	s.pw = grown(s.pw, 2*n*P)
	s.thr = grown(s.thr, 2*n)
	s.cnt = grown(s.cnt, 2*n)
	for x := range s.thr {
		s.thr[x] = math.NaN()
		s.cnt[x] = 0
	}
	for i := 0; i < n; i++ {
		row := s.w[i*k : i*k+k]
		xo := 2 * i
		thrOut := s.thr[xo]
		for j := 1; j < n; j++ {
			if j == i {
				continue
			}
			v := row[j-1]
			// !(v >= thr) admits everything while thr is NaN.
			if !(v >= thrOut) {
				thrOut = s.admit(ids, xo, int32(j), v)
			}
			if xi := 2*j + 1; !(v >= s.thr[xi]) {
				s.admit(ids, xi, int32(i), v)
			}
		}
	}
	for x := 0; x < 2*n; x++ {
		lo := x * P
		s.lists[x] = ids[lo : lo+int(s.cnt[x]) : lo+int(s.cnt[x])]
		// Out-lists hold every city but city 0 and their own; in-lists
		// every city but their own; city 0's in-list is empty.
		total := n - 1
		if x == 1 {
			total = 0
		} else if x&1 == 0 && x > 0 {
			total = n - 2
		}
		s.more[x] = total > P
	}
}

// admit inserts candidate y of weight v into side x's prefix, dropping
// the prefix's last entry when full, and returns the side's new
// admission threshold. y exceeds every index already kept.
func (s *lossState) admit(ids []int32, x int, y int32, v float64) float64 {
	const P = lossPrefix
	lo := x * P
	pw := (*[P]float64)(s.pw[lo : lo+P])
	id := (*[P]int32)(ids[lo : lo+P])
	c := int(s.cnt[x])
	if c < P {
		c++
		s.cnt[x] = int32(c)
	}
	t := c - 1
	for t > 0 && pw[t-1] > v {
		pw[t], id[t] = pw[t-1], id[t-1]
		t--
	}
	pw[t], id[t] = v, y
	if c == P {
		s.thr[x] = pw[P-1]
	}
	return s.thr[x]
}

// extend appends the next entries of side x's dense list: every
// candidate strictly after the last materialized (weight, index) key
// is gathered, and the smallest max(len, lossPrefix) of them are
// sorted in. Doubling bounds a list's extensions to log2 of its read
// depth over lossPrefix, each an O(n) gather plus a sort of the new
// entries.
func (s *lossState) extend(x int) {
	lst := s.lists[x]
	c := int32(x >> 1)
	last := lst[len(lst)-1]
	lw := s.sideWeight(x, last)
	n, k := int32(s.n), s.n-1
	cand := s.cand[:0]
	if x&1 == 0 {
		row := s.w[int(c)*k : int(c)*k+k]
		for y := int32(1); y < n; y++ {
			if v := row[y-1]; y != c && (v > lw || v == lw && y > last) {
				s.keys[y] = v
				cand = append(cand, y)
			}
		}
	} else {
		for y := int32(0); y < n; y++ {
			if v := s.w[int(y)*k+int(c)-1]; y != c && (v > lw || v == lw && y > last) {
				s.keys[y] = v
				cand = append(cand, y)
			}
		}
	}
	if m := max(len(lst), lossPrefix); len(cand) > m {
		// Selection permutes cand, so the radix sort's index
		// tie-break (which relies on ascending input) is off the
		// table; the comparison sort breaks ties explicitly.
		selectIdxByKey(cand, s.keys, m)
		cand = cand[:m]
		sortIdxByKey(cand, s.keys)
	} else {
		s.sortIdx(cand, s.keys)
		s.more[x] = false
	}
	ext := s.alloc(len(lst) + len(cand))
	copy(ext, lst)
	copy(ext[len(lst):], cand)
	s.lists[x] = ext
}

// sparseCandidates installs restricted out-edge lists and derives the
// in-edge lists by transposition.
func (s *lossState) sparseCandidates(out [][]int32) {
	n := s.n
	in := make([][]int32, n)
	for i := 0; i < n; i++ {
		lst := out[i]
		ii := int32(i)
		sort.Slice(lst, func(a, b int) bool { return s.weight(ii, lst[a]) < s.weight(ii, lst[b]) })
		s.lists[2*i] = lst
		for _, j := range lst {
			in[j] = append(in[j], ii)
		}
	}
	for j := 1; j < n; j++ {
		lst := in[j]
		jj := int32(j)
		sort.Slice(lst, func(a, b int) bool { return s.weight(lst[a], jj) < s.weight(lst[b], jj) })
		s.lists[2*j+1] = lst
	}
}

// active reports whether side x's city can still take that side's
// edge.
func (s *lossState) active(x int) bool {
	if x&1 == 0 {
		return s.availOut[x>>1]
	}
	return s.availIn[x>>1]
}

// valid reports whether candidate y is still legal for active side x:
// an out-side (a fragment tail) may enter any other fragment's head,
// an in-side (a fragment head) may leave any other fragment's tail.
func (s *lossState) valid(x int, y int32) bool {
	c := int32(x >> 1)
	if x&1 == 0 {
		return s.availIn[y] && s.tailOf[y] != c
	}
	return s.availOut[y] && s.tailOf[c] != y
}

// entry returns the q-th entry of side x's list, extending a lazy
// list as needed; ok is false past the list's end.
func (s *lossState) entry(x, q int) (y int32, ok bool) {
	for q >= len(s.lists[x]) {
		if !s.more[x] {
			return -1, false
		}
		s.extend(x)
	}
	return s.lists[x][q], true
}

// score recomputes side x's cached loss from its two cheapest valid
// candidates, advancing the skip pointer past invalid entries, and
// registers the side on the watch lists of both.
//
// Side urgency differs between the two sides because the tour is a
// free-end path, not a cycle: every city except the start must
// receive exactly one in-edge, so an in-side down to a single
// candidate is a forced move with infinite loss; but exactly one city
// ends the path with no out-edge at all, so an out-side down to its
// last candidate is not forced — its loss is zero (skipping it just
// nominates the city for the tail position).
func (s *lossState) score(x int) {
	s.loss[x], s.pick[x], s.second[x] = math.Inf(-1), -1, -1
	if !s.active(x) {
		return
	}
	p := int(s.ptr[x])
	y1, ok := s.entry(x, p)
	for ok && !s.valid(x, y1) {
		p++
		y1, ok = s.entry(x, p)
	}
	s.ptr[x] = int32(p)
	if !ok {
		return // no candidate left, for good
	}
	y2 := int32(-1)
	v2 := math.Inf(1)
	for q := p + 1; ; q++ {
		y, ok := s.entry(x, q)
		if !ok {
			break
		}
		if s.valid(x, y) {
			y2, v2 = y, s.sideWeight(x, y)
			break
		}
	}
	loss := v2 - s.sideWeight(x, y1)
	if x&1 == 0 && math.IsInf(v2, 1) {
		loss = 0
	}
	s.loss[x], s.pick[x], s.second[x] = loss, y1, y2
	s.watch(x, y1)
	if y2 >= 0 {
		s.watch(x, y2)
	}
}

// watch registers side x as reading candidate y: an out-side goes
// stale when y's in-side is taken, an in-side when y's out-side is.
func (s *lossState) watch(x int, y int32) {
	z := 2*int(y) + 1 - x&1
	s.wNext = append(s.wNext, s.wHead[z])
	s.wSide = append(s.wSide, int32(x))
	s.wHead[z] = int32(len(s.wSide) - 1)
}

// invalidate marks side x stale if it is active and reads y.
func (s *lossState) invalidate(x int, y int32) {
	if !s.dirty[x] && s.active(x) && (s.pick[x] == y || s.second[x] == y) {
		s.dirty[x] = true
		s.stale = append(s.stale, int32(x))
	}
}

// retire retires side z, whose city just took that side's edge, and
// marks every side that read the city through it stale.
func (s *lossState) retire(z int) {
	s.loss[z] = math.Inf(-1)
	y := int32(z >> 1)
	for r := s.wHead[z]; r >= 0; r = s.wNext[r] {
		s.invalidate(int(s.wSide[r]), y)
	}
	s.wHead[z] = -1
}

// takeEdge commits edge a->b and marks the sides it invalidates
// stale: those reading a as a predecessor, those reading b as a
// successor, and the merged fragment's own tail->head pair, the one
// pair a merge newly puts inside a single fragment.
func (s *lossState) takeEdge(a, b int32) {
	s.next[a] = b
	s.availOut[a] = false
	s.availIn[b] = false
	h, t := s.headOf[a], s.tailOf[b]
	s.tailOf[h] = t
	s.headOf[t] = h
	s.retire(2 * int(a))
	s.retire(2*int(b) + 1)
	s.invalidate(2*int(t), h)
	s.invalidate(2*int(h)+1, t)
}

// run performs greedy loss selection until maxEdges edges have been
// committed or no legal candidate edge remains, and returns the
// number of edges chosen. Each iteration commits the cheapest edge at
// the city side whose loss — the gap between its cheapest and
// second-cheapest remaining edge — is maximal, scanning cities
// ascending and each city's out-side before its in-side, so the first
// side of the strictly largest loss wins a tie. Only sides an edge
// invalidated are rescored between rounds.
func (s *lossState) run(maxEdges int) int {
	sides := 2 * s.n
	for x := 0; x < sides; x++ {
		s.score(x)
	}
	chosen := 0
	for chosen < maxEdges {
		for _, x := range s.stale {
			s.dirty[x] = false
			s.score(int(x))
		}
		s.stale = s.stale[:0]
		bestLoss, best := math.Inf(-1), -1
		for x, l := range s.loss[:sides] {
			if l > bestLoss {
				bestLoss, best = l, x
			}
		}
		if best < 0 {
			break
		}
		c, y := int32(best>>1), s.pick[best]
		if best&1 == 0 {
			s.takeEdge(c, y)
		} else {
			s.takeEdge(y, c)
		}
		chosen++
	}
	return chosen
}

// fragments extracts the directed partial paths of the current state,
// each as the list of its cities in path order. The fragment
// containing city 0 comes first.
func (s *lossState) fragments() [][]int32 {
	isHead := make([]bool, s.n)
	for c := range isHead {
		isHead[c] = true
	}
	for _, nx := range s.next[:s.n] {
		if nx >= 0 {
			isHead[nx] = false
		}
	}
	var frags [][]int32
	for c := int32(0); c < int32(s.n); c++ {
		if !isHead[c] {
			continue
		}
		var f []int32
		for x := c; x >= 0; x = s.next[x] {
			f = append(f, x)
		}
		if c == 0 {
			frags = append([][]int32{f}, frags...)
		} else {
			frags = append(frags, f)
		}
	}
	return frags
}

// lossPath builds the retrieval order of groups with the dense
// (complete-digraph) LOSS algorithm, drawing all working state from
// the arena. The returned slice is arena-backed; callers copy out of
// it before releasing the arena.
func lossPath(p *Problem, groups []group, a *lossArena) ([]group, error) {
	k := len(groups)
	if k == 1 {
		a.order = append(a.order[:0], groups[0])
		return a.order, nil
	}
	n := k + 1
	// Dense weight matrix, batch-filled: w[i*k+(j-1)] =
	// locate(out_i, in_j). The out point of city 0 is the head start;
	// the out point of a group city is the head position after reading
	// its last segment; the in point is its first segment. Read times
	// are order-independent and excluded. City 0 takes no in-edge, so
	// the matrix has no column for it; the diagonal is filled but
	// never read (a city is not a candidate of itself).
	a.srcs = grown(a.srcs, n)
	a.dsts = grown(a.dsts, k)
	a.srcs[0] = p.Start
	for c := 1; c < n; c++ {
		g := groups[c-1]
		a.srcs[c] = p.headAfter(g.last())
		a.dsts[c-1] = g.first()
	}
	a.w = grown(a.w, n*k)
	locate.FillCostMatrix(p.Cost, a.w, a.srcs, a.dsts)
	s := &a.state
	s.reset(n)
	s.w = a.w
	s.denseCandidates()
	if got := s.run(k); got != k {
		return nil, fmt.Errorf("core: LOSS stuck with %d/%d edges chosen", got, k)
	}
	a.order = a.order[:0]
	for c := s.next[0]; c >= 0; c = s.next[c] {
		a.order = append(a.order, groups[c-1])
	}
	if len(a.order) != k {
		return nil, fmt.Errorf("core: LOSS produced a broken path (%d of %d cities)", len(a.order), k)
	}
	return a.order, nil
}
