package core

import (
	"math"
	"math/bits"
)

// flatLOSSCities is the largest instance, counting the head city 0,
// the single-word engine takes: one bit per city in a uint64.
const flatLOSSCities = 64

// flatLoss is the dense LOSS engine for instances of at most
// flatLOSSCities cities, the batches the library and the paper's
// small lengths hand to LOSS. It makes the same greedy choices as
// lossState over a complete digraph, edge for edge, with none of the
// lazy machinery: availability is a pair of bitmasks, so a side's
// valid candidates are one mask, and a side is rescored by a linear
// scan of that mask instead of a walk down a sorted list.
//
// Cities and sides are numbered as in lossState: side 2c is city c's
// out-side, side 2c+1 its in-side.
type flatLoss struct {
	availOut uint64 // cities without a successor (fragment tails)
	availIn  uint64 // cities without a predecessor, city 0 never

	next   [flatLOSSCities]int32 // chosen successor per city, -1 if none
	headOf [flatLOSSCities]int32 // first city of the fragment ending at t
	tailOf [flatLOSSCities]int32 // last city of the fragment starting at h

	// Cached score per side: the loss, the cheapest valid candidate
	// (pick) and the candidates the score read (pick and second, as
	// bits). The score stays exact while both stay valid; a side with
	// no candidate left reads nothing and keeps loss -Inf for good.
	loss  [2 * flatLOSSCities]float64
	pick  [2 * flatLOSSCities]int32
	reads [2 * flatLOSSCities]uint64
}

// run performs the greedy loss selection over the n-city matrix w
// (stride n-1, entry (i, j) at i*(n-1)+j-1, as lossPath fills it)
// until n-1 edges are committed or no legal edge remains, and returns
// the number of edges chosen. Each round is one pass over the active
// sides in ascending city order, out-side before in-side: a side whose
// pick or second has become invalid is rescored, and the first side
// of the strictly largest loss wins.
func (f *flatLoss) run(w []float64, n int) int {
	k := n - 1
	all := ^uint64(0) >> (64 - n)
	f.availOut = all
	f.availIn = all &^ 1
	for c := 0; c < n; c++ {
		f.next[c] = -1
		f.headOf[c] = int32(c)
		f.tailOf[c] = int32(c)
	}
	// A side's valid mask always lacks at least one city's bit (city 0
	// for an out-side, the side's own fragment end for an in-side), so
	// reading every city forces the first round to score every side.
	for x := 0; x < 2*n; x++ {
		f.reads[x] = ^uint64(0)
	}
	chosen := 0
	for chosen < k {
		bestLoss, best := math.Inf(-1), -1
		for m := f.availOut | f.availIn; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if f.availOut&(1<<c) != 0 {
				x := 2 * c
				if valid := f.availIn &^ (1 << f.headOf[c]); f.reads[x]&^valid != 0 {
					f.score(x, valid, w, c*k-1, 1)
				}
				if f.loss[x] > bestLoss {
					bestLoss, best = f.loss[x], x
				}
			}
			if f.availIn&(1<<c) != 0 {
				x := 2*c + 1
				if valid := f.availOut &^ (1 << f.tailOf[c]); f.reads[x]&^valid != 0 {
					f.score(x, valid, w, c-1, k)
				}
				if f.loss[x] > bestLoss {
					bestLoss, best = f.loss[x], x
				}
			}
		}
		if best < 0 {
			break
		}
		c, y := int32(best>>1), f.pick[best]
		if best&1 == 0 {
			f.takeEdge(c, y)
		} else {
			f.takeEdge(y, c)
		}
		chosen++
	}
	return chosen
}

// score rescores side x from its valid candidates y, whose weights
// are w[off+y*stride]. The scan runs in ascending index and keeps the
// two smallest entries by (weight, index), pick and second; the first
// candidate is always admitted, so +Inf weights rank like any other.
// The loss is the gap between them, with lossState.score's free-end
// rule: an in-side down to one candidate is a forced move (+Inf), but
// an out-side with no finite second scores 0, since the path leaves
// one city without a successor.
func (f *flatLoss) score(x int, valid uint64, w []float64, off, stride int) {
	y1, y2 := -1, -1
	v1, v2 := math.Inf(1), math.Inf(1)
	for m := valid; m != 0; m &= m - 1 {
		y := bits.TrailingZeros64(m)
		v := w[off+y*stride]
		if y1 < 0 || v < v1 {
			y2, v2 = y1, v1
			y1, v1 = y, v
		} else if y2 < 0 || v < v2 {
			y2, v2 = y, v
		}
	}
	if y1 < 0 {
		f.loss[x], f.pick[x], f.reads[x] = math.Inf(-1), -1, 0
		return
	}
	loss := v2 - v1
	if x&1 == 0 && math.IsInf(v2, 1) {
		loss = 0
	}
	reads := uint64(1) << y1
	if y2 >= 0 {
		reads |= 1 << y2
	}
	f.loss[x], f.pick[x], f.reads[x] = loss, int32(y1), reads
}

// takeEdge commits edge a->b and merges the two fragments it joins.
func (f *flatLoss) takeEdge(a, b int32) {
	f.next[a] = b
	f.availOut &^= 1 << a
	f.availIn &^= 1 << b
	h, t := f.headOf[a], f.tailOf[b]
	f.tailOf[h] = t
	f.headOf[t] = h
}
