package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"serpentine/internal/geometry"
)

// refOPT is the exhaustive Held-Karp dynamic program that OPT.Schedule
// ran before the bounded search: every (mask, j) state is initialized
// to +Inf and expanded. It allocates its tables fresh on every call
// and is kept as the test oracle for the bounded engine. found reports
// whether any complete path has a cost below +Inf; when none does, the
// backtrack below follows parent entries no call ever wrote, and the
// order is meaningless.
func refOPT(p *Problem) (order []int, found bool) {
	n := len(p.Requests)
	if n == 0 {
		return nil, true
	}
	start := make([]float64, n)
	w := make([]float64, n*n)
	for i, ri := range p.Requests {
		start[i] = p.Cost.LocateTime(p.Start, ri)
		out := p.headAfter(ri)
		for j, rj := range p.Requests {
			if i == j {
				w[i*n+j] = 0
				continue
			}
			w[i*n+j] = p.Cost.LocateTime(out, rj)
		}
	}

	size := 1 << n
	dp := make([]float64, size*n)
	parent := make([]int8, size*n)
	inf := math.Inf(1)
	for i := range dp {
		dp[i] = inf
	}
	for j := 0; j < n; j++ {
		dp[(1<<j)*n+j] = start[j]
		parent[(1<<j)*n+j] = -1
	}
	full := size - 1
	for mask := 1; mask < size; mask++ {
		base := mask * n
		for set := mask; set != 0; set &= set - 1 {
			j := bits.TrailingZeros64(uint64(set))
			cur := dp[base+j]
			if cur == inf {
				continue
			}
			wj := w[j*n : j*n+n]
			for rest := full &^ mask; rest != 0; rest &= rest - 1 {
				k := bits.TrailingZeros64(uint64(rest))
				next := (mask | 1<<k) * n
				if c := cur + wj[k]; c < dp[next+k] {
					dp[next+k] = c
					parent[next+k] = int8(j)
				}
			}
		}
	}

	bestJ, bestC := 0, math.Inf(1)
	for j := 0; j < n; j++ {
		if c := dp[full*n+j]; c < bestC {
			bestJ, bestC = j, c
		}
	}

	order = make([]int, n)
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
	return order, bestC < inf
}

// matrixCost is a locate.Cost over an explicit weight table for
// requests at segments 0, 8, ..., 8(n-1) with the head starting at
// segment 8n: LocateTime(src, dst) is w[(src/8)*n + dst/8], so row n
// holds the start weights and any ReadLen of 1..7 leaves the rows
// unchanged.
type matrixCost struct {
	n int
	w []float64
}

func (c matrixCost) LocateTime(src, dst int) float64 { return c.w[(src/8)*c.n+dst/8] }
func (matrixCost) ReadTime(int) float64              { return 1 }
func (matrixCost) FullReadTime() float64             { return 1e9 }
func (matrixCost) View() *geometry.View              { return nil }
func (c matrixCost) Segments() int                   { return 8 * (c.n + 1) }

// matrixProblem builds a problem over matrixCost whose requests are
// listed in the order perm gives (a permutation of 0..n-1).
func matrixProblem(w []float64, perm []int, readLen int) *Problem {
	n := len(perm)
	reqs := make([]int, n)
	for i, v := range perm {
		reqs[i] = 8 * v
	}
	return &Problem{Start: 8 * n, Requests: reqs, ReadLen: readLen, Cost: matrixCost{n: n, w: w}}
}

// wantOPT is the order OPT must return: refOPT's when some complete
// path costs less than +Inf, the requests in input order otherwise.
func wantOPT(p *Problem) []int {
	order, found := refOPT(p)
	if !found {
		return append([]int(nil), p.Requests...)
	}
	return order
}

func equalOrder(t *testing.T, what string, got, want []int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: order %v, want %v", what, got, want)
	}
}

// FuzzOPTBoundedEquivalence checks the bounded Held-Karp search
// against the exhaustive oracle order for order. Weights are small
// integers modulo 1+span%16, so exact ties and zeros are common and
// the earliest-j tie-break decides. A byte with the high bit set is an
// odd weight when kinds enables its kind (bits 5-6 of the byte: 0
// negative, 1 +Inf, 2 NaN; kinds bit 0, 1, 2 respectively), which
// switches pruning off or strands requests. ReadLen runs 1..7.
func FuzzOPTBoundedEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})                    // n=1
	f.Add(uint8(9), uint8(0), uint8(0), uint8(0), []byte{1})                   // n=10, all equal
	f.Add(uint8(11), uint8(2), uint8(0), uint8(3), []byte{0, 1, 1, 0, 1, 1})   // n=12, 0/1
	f.Add(uint8(9), uint8(7), uint8(0), uint8(1), []byte("bounded held-karp")) // n=10
	f.Add(uint8(7), uint8(5), uint8(1), uint8(2), []byte{3, 1, 4, 1, 0x85, 9, 2, 6, 0x80, 3})
	f.Add(uint8(8), uint8(9), uint8(2), uint8(4), []byte{2, 7, 1, 8, 0xa1, 8, 2, 8, 4, 5, 9})
	f.Add(uint8(5), uint8(3), uint8(2), uint8(0), []byte{0xa0})             // n=6, no finite path
	f.Add(uint8(6), uint8(3), uint8(4), uint8(5), []byte{0xc0, 0xc1, 0xc2}) // n=7, all NaN
	f.Add(uint8(10), uint8(15), uint8(7), uint8(6), []byte{5, 0x83, 7, 0xa2, 1, 0xc4, 9, 2, 6})
	f.Fuzz(func(t *testing.T, nb, span, kinds, rl uint8, data []byte) {
		n := 1 + int(nb)%12
		mod := 1 + int(span)%16
		w := make([]float64, (n+1)*n)
		for x := range w {
			if len(data) == 0 {
				continue
			}
			b := data[x%len(data)] ^ byte(x/len(data))
			v := float64(int(b&0x1f) % mod)
			if kind := b >> 5 & 3; b&0x80 != 0 && kind < 3 && kinds&(1<<kind) != 0 {
				switch kind {
				case 0:
					v = -v
				case 1:
					v = math.Inf(1)
				case 2:
					v = math.NaN()
				}
			}
			w[x] = v
		}
		// Rotate the request list so the input order differs from the
		// matrix order.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i + int(span)) % n
		}
		p := matrixProblem(w, perm, 1+int(rl)%7)
		plan, err := NewOPT(12).Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		equalOrder(t, fmt.Sprintf("n=%d mod=%d kinds=%d", n, mod, kinds), plan.Order, wantOPT(p))
	})
}

// On real locate times, including multi-segment reads, the bounded
// search returns the oracle's order at every size OPT is used for.
func TestOPTMatchesReferenceOnLocateTimes(t *testing.T) {
	m := testModel(t, 1)
	for n := 1; n <= 12; n++ {
		for seed := int64(0); seed < 6; seed++ {
			p := randomProblem(t, m, n, seed*977+int64(n))
			if seed%2 == 1 {
				p.ReadLen = 1 + int(seed)*100
				if p.Validate() != nil { // a request too near the end of tape
					p.ReadLen = 0
				}
			}
			plan, err := NewOPT(12).Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			equalOrder(t, fmt.Sprintf("n=%d seed=%d", n, seed), plan.Order, wantOPT(p))
		}
	}
}
