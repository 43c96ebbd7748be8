package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// OPT computes a provably minimal schedule. The paper models the
// problem as an asymmetric traveling salesman path with a fixed
// start and free end (Section 4) and solves it by exhaustive
// permutation search, which limits it to about 12 requests (936 CPU
// seconds on the paper's SparcStation). This implementation uses a
// bounded Held–Karp dynamic program instead — worst case O(2ⁿ·n²)
// time, O(2ⁿ·n) space — which finds the identical optimum
// (cross-checked against permutation search and the exhaustive
// dynamic program in tests) while extending the practical range to
// n ~ 20. A cheap or-opt path gives an upper bound, and only the
// states whose cost plus a lower bound on the rest can still reach
// it are expanded: about an eighth of them at n = 10. The paper's
// recommendation stands: use OPT for small batches (up to ~10), LOSS
// beyond.
type OPT struct {
	limit int
}

// ErrTooLarge is returned (wrapped) when a problem exceeds an OPT
// scheduler's request limit.
var ErrTooLarge = fmt.Errorf("core: problem too large for OPT")

// NewOPT returns an exact scheduler that accepts up to limit
// requests; limit is capped at 24 to bound the 2^n memory.
func NewOPT(limit int) OPT {
	if limit > 24 {
		limit = 24
	}
	if limit < 1 {
		limit = 1
	}
	return OPT{limit: limit}
}

// Name returns "OPT".
func (OPT) Name() string { return "OPT" }

// Limit returns the maximum accepted request count.
func (o OPT) Limit() int { return o.limit }

// optArena holds the Held-Karp working state — edge weights, the
// 2^n lower-bound table and the 2^n * n dynamic-programming tables — so
// repeated small-batch calls (the Auto policy's common case) allocate
// only the returned order. A dp or parent entry is read only when its
// alive bit is set, and alive is cleared on every call, so entries
// left by earlier calls are never read.
type optArena struct {
	w      []float64 // flat (n+1)*n edge matrix, head row last
	rest   []float64 // rest[R]: sum of minIn over the set R
	alive  []uint32  // alive[mask] bit j: dp[mask][j] was written
	dp     []float64
	parent []int8
}

var optPool = sync.Pool{New: func() any { return new(optArena) }}

// Schedule solves the instance exactly. When no complete path has a
// finite cost (every locate +Inf or NaN) it returns the requests in
// input order.
func (o OPT) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	n := len(p.Requests)
	if n > o.limit {
		return Plan{}, fmt.Errorf("%w: %d requests exceeds limit %d", ErrTooLarge, n, o.limit)
	}
	if n == 0 {
		return Plan{}, nil
	}

	a := optPool.Get().(*optArena)
	defer optPool.Put(a)

	// Edge weights. Read times are order-independent and excluded.
	// w[i*n+j] is the locate from the head after reading request i to
	// request j; row n holds the locates from the head's start.
	w := grown(a.w, (n+1)*n)
	for i, ri := range p.Requests {
		out := p.headAfter(ri)
		for j, rj := range p.Requests {
			if i == j {
				w[i*n+j] = 0
				continue
			}
			w[i*n+j] = p.Cost.LocateTime(out, rj)
		}
		w[n*n+i] = p.Cost.LocateTime(p.Start, ri)
	}

	// Lower bound on completing a path: every request k still
	// unvisited is entered from some other request, at no less than
	// minIn[k]. rest[R] sums that over the unvisited set R.
	odd := false          // a negative or NaN weight
	var minIn [24]float64 // n <= 24, NewOPT's cap
	for k := 0; k < n; k++ {
		m := math.Inf(1)
		for i := 0; i <= n; i++ {
			v := w[i*n+k]
			odd = odd || !(v >= 0)
			if i != k && i != n && v < m {
				m = v
			}
		}
		minIn[k] = m
	}
	size := 1 << n
	full := size - 1
	rest := grown(a.rest, size)
	rest[0] = 0
	for r := 1; r < size; r++ {
		rest[r] = rest[r&(r-1)] + minIn[bits.TrailingZeros32(uint32(r))]
	}

	// Upper bound: a complete path's cost, summed in path order
	// exactly as the dynamic program accumulates it, with slack for
	// the different rounding of cost + rest sums. Negative or NaN
	// weights break the monotone float sums the bound relies on, so
	// they switch pruning off.
	ub := math.Inf(1)
	if !odd {
		var path [24]int8
		ub = boundTour(w, path[:n]) * (1 + 1e-9)
	}

	// Bounded Held-Karp over subsets: dp[mask][j] is the minimal
	// locate time of a path that starts at the head position, visits
	// exactly the requests in mask, and ends having just read request
	// j. A candidate cost c for a state is pushed only when c < +Inf
	// and c + rest[R] <= ub, R being the requests the state leaves
	// unvisited; a state is alive once pushed, and
	// only alive states are expanded, in the exhaustive program's
	// order (masks ascending, then j, then k) with its strict-
	// improvement tie-break.
	//
	// Why plans stay identical to the exhaustive program's: every
	// state on the chain the backtrack follows to the optimum costs,
	// with rest added, no more than OPT <= ub (up to rounding far
	// inside the 1e-9 slack), so it is never pruned. A pruned
	// candidate costs more than any optimal chain through its state,
	// so it can never set a minimum or win an earliest-j tie, and
	// every dp and parent entry the backtrack reads is unchanged.
	alive := grown(a.alive, size)
	clear(alive)
	dp := grown(a.dp, size*n)
	parent := grown(a.parent, size*n)
	inf := math.Inf(1)
	for j := 0; j < n; j++ {
		if c := w[n*n+j]; c < inf && !(c+rest[full&^(1<<j)] > ub) {
			alive[1<<j] |= 1 << j
			dp[(1<<j)*n+j] = c
			parent[(1<<j)*n+j] = -1
		}
	}
	for mask := 1; mask < full; mask++ {
		base := mask * n
		unvisited := full &^ mask
		for set := alive[mask]; set != 0; set &= set - 1 {
			j := bits.TrailingZeros32(set)
			cur := dp[base+j]
			wj := w[j*n : j*n+n]
			for todo := unvisited; todo != 0; todo &= todo - 1 {
				k := bits.TrailingZeros32(uint32(todo))
				c := cur + wj[k]
				// x > ub rather than !(x <= ub): with pruning off,
				// -Inf + +Inf is NaN and must not prune.
				if !(c < inf) || c+rest[unvisited&^(1<<k)] > ub {
					continue
				}
				next := mask | 1<<k
				idx := next*n + k
				if alive[next]&(1<<k) == 0 {
					alive[next] |= 1 << k
				} else if !(c < dp[idx]) {
					continue
				}
				dp[idx] = c
				parent[idx] = int8(j)
			}
		}
	}

	a.w, a.rest, a.alive, a.dp, a.parent = w, rest, alive, dp, parent

	// The end city is unconstrained: take the best final request.
	order := make([]int, n)
	bestJ, bestC := -1, inf
	for set := alive[full]; set != 0; set &= set - 1 {
		j := bits.TrailingZeros32(set)
		if c := dp[full*n+j]; c < bestC {
			bestJ, bestC = j, c
		}
	}
	if bestJ < 0 { // no complete path with a finite cost
		copy(order, p.Requests)
		return Plan{Order: order}, nil
	}
	mask, j := full, bestJ
	for i := n - 1; i >= 0; i-- {
		order[i] = p.Requests[j]
		pj := parent[mask*n+j]
		mask &^= 1 << j
		if pj < 0 {
			break
		}
		j = int(pj)
	}
	return Plan{Order: order}, nil
}

// boundTour builds a cheap complete path into path over the weights
// of Schedule — nearest neighbour from the head, then or-opt moves of
// runs of one to three requests — and returns its cost summed left to
// right. Weights must be nonnegative (possibly +Inf).
func boundTour(w []float64, path []int8) float64 {
	n := len(path)
	var used uint32
	prev := n // the head's start row
	for i := range path {
		next, best := -1, math.Inf(1)
		for k, v := range w[prev*n : prev*n+n] {
			if used&(1<<k) == 0 && (next < 0 || v < best) {
				next, best = k, v
			}
		}
		path[i], prev = int8(next), next
		used |= 1 << next
	}

	// Or-opt: relocate path[i:j] to before position k when that
	// lowers the cost, until a sweep finds no move (at most n sweeps).
	// The edge into position i comes from row into(i).
	into := func(i int) int {
		if i == 0 {
			return n
		}
		return int(path[i-1])
	}
	for sweep := 0; sweep < n; sweep++ {
		moved := false
		for run := 1; run <= 3 && run < n; run++ {
			for i := 0; i+run <= n; i++ {
				j := i + run
				first, last, from := int(path[i]), int(path[j-1]), into(i)
				gain := w[from*n+first]
				if j < n {
					after := int(path[j])
					gain += w[last*n+after] - w[from*n+after]
				}
				if !(gain > 0) {
					continue
				}
				for k := 0; k <= n; k++ {
					if k >= i && k <= j {
						continue
					}
					prev := into(k)
					cost := w[prev*n+first]
					if k < n {
						at := int(path[k])
						cost += w[last*n+at] - w[prev*n+at]
					}
					if cost < gain {
						if k > j {
							rotateLeft(path[i:k], run)
						} else {
							rotateLeft(path[k:j], i-k)
						}
						moved = true
						break
					}
				}
			}
		}
		if !moved {
			break
		}
	}

	cost := w[n*n+int(path[0])]
	for i := 1; i < n; i++ {
		cost += w[int(path[i-1])*n+int(path[i])]
	}
	return cost
}

// rotateLeft rotates s left by d in place.
func rotateLeft(s []int8, d int) {
	slices.Reverse(s[:d])
	slices.Reverse(s[d:])
	slices.Reverse(s)
}

// bruteForce finds the optimum by trying every permutation, exactly
// as the paper's OPT implementation did. It exists to cross-check
// Held-Karp in tests and to reproduce the paper's Figure 6 CPU-cost
// curve for OPT.
func bruteForce(p *Problem) (Plan, float64) {
	n := len(p.Requests)
	order := make([]int, n)
	copy(order, p.Requests)
	best := make([]int, n)
	copy(best, order)
	bestCost := math.Inf(1)

	var permute func(k int)
	permute = func(k int) {
		if k == n {
			if c := estimateSized(p, order).Locate; c < bestCost {
				bestCost = c
				copy(best, order)
			}
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
	return Plan{Order: best}, bestCost
}
