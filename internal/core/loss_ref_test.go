package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"serpentine/internal/locate"
	"serpentine/internal/rand48"
)

// refLoss is the eager greedy-loss engine LOSS used before its
// candidate lists became lazy and its loss scores incremental: every
// candidate list is fully sorted up front, and every round rescans
// every city's two cheapest remaining edges. It is kept only as the
// test oracle the production engine must match edge for edge.
type refLoss struct {
	n      int
	weight func(i, j int32) float64
	next   []int32

	availOut, availIn   []bool
	sortedOut, sortedIn [][]int32
	ptrOut, ptrIn       []int
	parent, tail        []int32
}

func newRefLoss(n int, weight func(i, j int32) float64) *refLoss {
	s := &refLoss{
		n: n, weight: weight,
		next:     make([]int32, n),
		availOut: make([]bool, n), availIn: make([]bool, n),
		sortedOut: make([][]int32, n), sortedIn: make([][]int32, n),
		ptrOut: make([]int, n), ptrIn: make([]int, n),
		parent: make([]int32, n), tail: make([]int32, n),
	}
	for c := 0; c < n; c++ {
		s.next[c] = -1
		s.availOut[c] = true
		s.availIn[c] = c != 0
		s.parent[c] = int32(c)
		s.tail[c] = int32(c)
	}
	return s
}

// refSortIdx is the eager engine's list sort: radix for long lists,
// comparison sort for short ones.
func refSortIdx(lst []int32, key []float64) {
	if n := len(lst); n >= 96 {
		radixSortIdx(lst, key, make([]kvPair, n), make([]kvPair, n))
		return
	}
	sortIdxByKey(lst, key)
}

// denseCandidates fully sorts every out-list and in-list.
func (s *refLoss) denseCandidates() {
	n := s.n
	key := make([]float64, n)
	for i := 0; i < n; i++ {
		var lst []int32
		for j := 1; j < n; j++ {
			if j != i {
				lst = append(lst, int32(j))
				key[j] = s.weight(int32(i), int32(j))
			}
		}
		refSortIdx(lst, key)
		s.sortedOut[i] = lst
	}
	for j := 1; j < n; j++ {
		var lst []int32
		for i := 0; i < n; i++ {
			if i != j {
				lst = append(lst, int32(i))
				key[i] = s.weight(int32(i), int32(j))
			}
		}
		refSortIdx(lst, key)
		s.sortedIn[j] = lst
	}
}

// sparseCandidates installs restricted out-lists exactly as the
// production engine's sparseCandidates does.
func (s *refLoss) sparseCandidates(out [][]int32) {
	n := s.n
	in := make([][]int32, n)
	for i := 0; i < n; i++ {
		lst := append([]int32(nil), out[i]...)
		ii := int32(i)
		sort.Slice(lst, func(a, b int) bool { return s.weight(ii, lst[a]) < s.weight(ii, lst[b]) })
		s.sortedOut[i] = lst
		for _, j := range lst {
			in[j] = append(in[j], ii)
		}
	}
	for j := 1; j < n; j++ {
		lst := in[j]
		jj := int32(j)
		sort.Slice(lst, func(a, b int) bool { return s.weight(lst[a], jj) < s.weight(lst[b], jj) })
		s.sortedIn[j] = lst
	}
}

func (s *refLoss) find(x int32) int32 {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

func (s *refLoss) validOut(i, j int32) bool { return s.availIn[j] && s.find(i) != s.find(j) }
func (s *refLoss) validIn(j, i int32) bool  { return s.availOut[i] && s.find(i) != s.find(j) }

func (s *refLoss) bestOut(i int32) (j1 int32, v1, v2 float64, found bool) {
	lst := s.sortedOut[i]
	p := s.ptrOut[i]
	for p < len(lst) && !s.validOut(i, lst[p]) {
		p++
	}
	s.ptrOut[i] = p
	if p == len(lst) {
		return 0, 0, 0, false
	}
	j1 = lst[p]
	v1 = s.weight(i, j1)
	v2 = math.Inf(1)
	for q := p + 1; q < len(lst); q++ {
		if s.validOut(i, lst[q]) {
			v2 = s.weight(i, lst[q])
			break
		}
	}
	return j1, v1, v2, true
}

func (s *refLoss) bestIn(j int32) (i1 int32, v1, v2 float64, found bool) {
	lst := s.sortedIn[j]
	p := s.ptrIn[j]
	for p < len(lst) && !s.validIn(j, lst[p]) {
		p++
	}
	s.ptrIn[j] = p
	if p == len(lst) {
		return 0, 0, 0, false
	}
	i1 = lst[p]
	v1 = s.weight(i1, j)
	v2 = math.Inf(1)
	for q := p + 1; q < len(lst); q++ {
		if s.validIn(j, lst[q]) {
			v2 = s.weight(lst[q], j)
			break
		}
	}
	return i1, v1, v2, true
}

func (s *refLoss) takeEdge(a, b int32) {
	s.next[a] = b
	s.availOut[a] = false
	s.availIn[b] = false
	ra, rb := s.find(a), s.find(b)
	s.parent[rb] = ra
	s.tail[ra] = s.tail[rb]
}

// run rescans every city's out-side then in-side each round and
// commits the edge of the strictly largest loss.
func (s *refLoss) run(maxEdges int) int {
	chosen := 0
	for chosen < maxEdges {
		bestLoss := math.Inf(-1)
		var selA, selB int32 = -1, -1
		for c := int32(0); c < int32(s.n); c++ {
			if s.availOut[c] {
				if j, v1, v2, ok := s.bestOut(c); ok {
					loss := v2 - v1
					if math.IsInf(v2, 1) {
						loss = 0
					}
					if loss > bestLoss {
						bestLoss, selA, selB = loss, c, j
					}
				}
			}
			if s.availIn[c] {
				if i, v1, v2, ok := s.bestIn(c); ok {
					if loss := v2 - v1; loss > bestLoss {
						bestLoss, selA, selB = loss, i, c
					}
				}
			}
		}
		if selA < 0 {
			break
		}
		s.takeEdge(selA, selB)
		chosen++
	}
	return chosen
}

// lazyNext runs the production engine over a complete digraph.
func lazyNext(n int, weight func(i, j int32) float64) ([]int32, int) {
	s := newLossState(n, weight)
	s.denseCandidates()
	got := s.run(n - 1)
	return s.next[:n], got
}

// flatNext runs the single-word engine over a complete digraph of at
// most flatLOSSCities cities, copying the weights into the strided
// matrix lossPath fills.
func flatNext(n int, weight func(i, j int32) float64) ([]int32, int) {
	k := n - 1
	w := make([]float64, n*k)
	for i := 0; i < n; i++ {
		for j := 1; j < n; j++ {
			if j != i {
				w[i*k+j-1] = weight(int32(i), int32(j))
			}
		}
	}
	var f flatLoss
	got := f.run(w, n)
	return f.next[:n], got
}

// refNext runs the eager reference over the same digraph.
func refNext(n int, weight func(i, j int32) float64) ([]int32, int) {
	r := newRefLoss(n, weight)
	r.denseCandidates()
	got := r.run(n - 1)
	return r.next, got
}

func equalNext(t *testing.T, what string, got, want []int32, gotEdges, wantEdges int) {
	t.Helper()
	if gotEdges != wantEdges {
		t.Fatalf("%s: %d edges chosen, reference chose %d", what, gotEdges, wantEdges)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("%s: next[%d] = %d, reference %d\n got %v\nwant %v", what, c, got[c], want[c], got, want)
		}
	}
}

// FuzzLOSSLazyEquivalence checks the lazy, incremental engine and the
// single-word flat engine against the eager reference edge for edge.
// n spans 2..64 cities, the flat engine's whole range. Weights are
// small integers, so exact ties are common and the (weight, index)
// tie-break decides; bytes with the high bit set negate their weight,
// which also yields -0, and bytes whose low seven bits are all set
// weigh +Inf, so ties at +Inf and the +Inf - +Inf NaN loss occur. A
// span of 0 or 16 makes every finite weight ±0, which drives every
// list past its prefix into extend.
func FuzzLOSSLazyEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})                                  // n=2
	f.Add(uint8(1), uint8(3), []byte{5, 1, 200, 7})                      // n=3
	f.Add(uint8(18), uint8(0), []byte{1})                                // n=20, ±0 but for two +Inf
	f.Add(uint8(62), uint8(0), []byte{})                                 // n=64, all equal
	f.Add(uint8(62), uint8(2), []byte{0, 1, 1, 0, 128, 1, 0, 0, 129, 1}) // n=64, 0/1 with -0
	f.Add(uint8(40), uint8(7), []byte("lazy incremental loss must match the eager oracle"))
	f.Add(uint8(62), uint8(255), []byte{3, 141, 59, 26, 5, 35, 89, 79, 32, 38, 46, 26, 43, 38, 32, 79, 50, 28, 84, 197})
	f.Add(uint8(95), uint8(37), []byte("8"))                         // n=34, out-sides with a +Inf second
	f.Add(uint8(62), uint8(2), []byte{48, 120, 67, 39, 0, 0, 90, 1}) // n=64, sides whose every candidate is +Inf
	f.Fuzz(func(t *testing.T, nb, span uint8, data []byte) {
		n := 2 + int(nb)%63
		mod := 1 + int(span)%16
		w := make([]float64, n*n)
		for x := range w {
			if len(data) == 0 {
				continue
			}
			b := data[x%len(data)] ^ byte(x/len(data))
			v := float64(int(b&0x7f) % mod)
			if b&0x7f == 0x7f {
				v = math.Inf(1)
			} else if b&0x80 != 0 {
				v = -v
			}
			w[x] = v
		}
		weight := func(i, j int32) float64 { return w[int(i)*n+int(j)] }
		want, wantEdges := refNext(n, weight)
		got, gotEdges := lazyNext(n, weight)
		equalNext(t, fmt.Sprintf("lazy n=%d mod=%d", n, mod), got, want, gotEdges, wantEdges)
		got, gotEdges = flatNext(n, weight)
		equalNext(t, fmt.Sprintf("flat n=%d mod=%d", n, mod), got, want, gotEdges, wantEdges)
	})
}

// On real locate-time matrices, including lists long enough for the
// radix sort, the engines choose the same edges as the reference: the
// lazy one at every size, the flat one up to its 64 cities.
func TestLOSSLazyMatchesReferenceOnLocateTimes(t *testing.T) {
	m := testModel(t, 1)
	for _, n := range []int{2, 11, 16, 17, 40, 63, 96, 257, 700} {
		p := randomProblem(t, m, n, int64(n)*31+5)
		srcs := append([]int{p.Start}, make([]int, n)...)
		dsts := make([]int, n)
		for c, r := range p.Requests {
			srcs[c+1] = p.headAfter(r)
			dsts[c] = r
		}
		w := make([]float64, (n+1)*n)
		locate.FillCostMatrix(m, w, srcs, dsts)
		weight := func(i, j int32) float64 { return w[int(i)*n+int(j)-1] }
		want, wantEdges := refNext(n+1, weight)
		got, gotEdges := lazyNext(n+1, weight)
		equalNext(t, fmt.Sprintf("lazy n=%d", n), got, want, gotEdges, wantEdges)
		if n+1 <= flatLOSSCities {
			got, gotEdges = flatNext(n+1, weight)
			equalNext(t, fmt.Sprintf("flat n=%d", n), got, want, gotEdges, wantEdges)
		}
	}
}

// Restricted candidate lists, where the greedy usually gets stuck
// before one path forms: the incremental run must stop at the same
// edge count with the same partial paths.
func TestLOSSSparseRunMatchesReference(t *testing.T) {
	rng := rand48.New(11)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		w := make([]float64, n*n)
		for x := range w {
			w[x] = float64(rng.Intn(9))
		}
		weight := func(i, j int32) float64 { return w[int(i)*n+int(j)] }
		out := make([][]int32, n)
		for i := range out {
			for j := 1; j < n; j++ {
				if j != i && rng.Intn(4) == 0 {
					out[i] = append(out[i], int32(j))
				}
			}
		}
		r := newRefLoss(n, weight)
		r.sparseCandidates(out)
		wantEdges := r.run(n - 1)
		s := newLossState(n, weight)
		s.sparseCandidates(out)
		gotEdges := s.run(n - 1)
		equalNext(t, fmt.Sprintf("trial %d n=%d", trial, n), s.next[:n], r.next, gotEdges, wantEdges)
	}
}
