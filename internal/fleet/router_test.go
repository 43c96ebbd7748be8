package fleet

import (
	"math"
	"reflect"
	"testing"
)

// TestTieBreakPure pins the tie-break as a pure function of
// (seed, ordinal): golden values, range validity, and sensitivity to
// both inputs. The fleet-determinism CI job covers the same property
// end to end at 1 and 8 workers; this pins the function itself.
func TestTieBreakPure(t *testing.T) {
	golden := map[int64][]int{
		0:  {1, 0, 1, 1, 1, 0, 2, 2},
		42: {1, 1, 0, 0, 1, 0, 1, 2},
	}
	for seed, want := range golden {
		got := make([]int, len(want))
		for o := range got {
			got[o] = tieBreak(seed, o, 3)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tieBreak(%d, 0..%d, 3) = %v, want %v", seed, len(want)-1, got, want)
		}
	}
	if got := tieBreak(42, 100, 5); got != 1 {
		t.Errorf("tieBreak(42, 100, 5) = %d, want 1", got)
	}
	for o := 0; o < 1000; o++ {
		for _, k := range []int{1, 2, 3, 7} {
			if pick := tieBreak(99, o, k); pick < 0 || pick >= k {
				t.Fatalf("tieBreak(99, %d, %d) = %d out of range", o, k, pick)
			}
		}
	}
	// Repeated calls agree (no hidden state), and both seed and
	// ordinal move the pick somewhere in a small window.
	seedMoved, ordinalMoved := false, false
	for o := 0; o < 64; o++ {
		a, b := tieBreak(1, o, 4), tieBreak(1, o, 4)
		if a != b {
			t.Fatalf("tieBreak(1, %d, 4) unstable: %d then %d", o, a, b)
		}
		if a != tieBreak(2, o, 4) {
			seedMoved = true
		}
		if a != tieBreak(1, o+1, 4) {
			ordinalMoved = true
		}
	}
	if !seedMoved {
		t.Error("seed never changes the pick")
	}
	if !ordinalMoved {
		t.Error("ordinal never changes the pick")
	}
}

func scoreOf(r Router, ordinal, shards int, cands []Candidate) []float64 {
	scores := make([]float64, len(cands))
	r.Score(ordinal, shards, cands, scores)
	return scores
}

func argmax(scores []float64) int {
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return best
}

func TestPassThroughPrefersPrimary(t *testing.T) {
	cands := []Candidate{
		{Shard: 1, QueueDepth: 0, Headroom: 1},
		{Shard: 3, QueueDepth: 9, Headroom: 0.5, Primary: true},
	}
	if got := argmax(scoreOf(PassThrough{}, 0, 4, cands)); got != 1 {
		t.Errorf("pass-through picked candidate %d, want the primary", got)
	}
}

func TestRoundRobinCyclicFallback(t *testing.T) {
	// Shards 0..3; candidates on 1 and 3 only. Ordinal 2 deals shard
	// 2, which holds no copy; the next candidate cyclically is 3.
	cands := []Candidate{{Shard: 1, Headroom: 1}, {Shard: 3, Headroom: 1}}
	if got := argmax(scoreOf(RoundRobin{}, 2, 4, cands)); got != 1 {
		t.Errorf("round-robin ordinal 2 picked shard %d, want 3", cands[got].Shard)
	}
	if got := argmax(scoreOf(RoundRobin{}, 1, 4, cands)); got != 0 {
		t.Errorf("round-robin ordinal 1 picked shard %d, want 1", cands[got].Shard)
	}
	// The dealt shard itself wins when it is a candidate.
	if got := argmax(scoreOf(RoundRobin{}, 3, 4, cands)); got != 1 {
		t.Errorf("round-robin ordinal 3 picked shard %d, want 3", cands[got].Shard)
	}
}

func TestLeastLoadedScaledByHeadroom(t *testing.T) {
	// Same queue depth, but shard 0 is browning out: its effective
	// load doubles and shard 1 wins.
	cands := []Candidate{
		{Shard: 0, QueueDepth: 4, Headroom: 0.5},
		{Shard: 1, QueueDepth: 4, Headroom: 1},
	}
	if got := argmax(scoreOf(LeastLoaded{}, 0, 2, cands)); got != 1 {
		t.Errorf("least-loaded picked the degraded shard")
	}
	// A shard with zero headroom scores -Inf: never chosen while an
	// alternative exists.
	cands[0].Headroom = 0
	scores := scoreOf(LeastLoaded{}, 0, 2, cands)
	if !math.IsInf(scores[0], -1) {
		t.Errorf("zero-headroom score = %g, want -Inf", scores[0])
	}
	// Deeper queue loses at equal headroom.
	cands = []Candidate{
		{Shard: 0, QueueDepth: 1, Headroom: 1},
		{Shard: 1, QueueDepth: 0, Headroom: 1},
	}
	if got := argmax(scoreOf(LeastLoaded{}, 0, 2, cands)); got != 1 {
		t.Errorf("least-loaded picked the deeper queue")
	}
}

func TestAffinityPrefersMountedThenLoad(t *testing.T) {
	cands := []Candidate{
		{Shard: 0, QueueDepth: 0, Headroom: 1},
		{Shard: 1, QueueDepth: 50, Headroom: 1, Mounted: true},
	}
	if got := argmax(scoreOf(Affinity{}, 0, 2, cands)); got != 1 {
		t.Errorf("affinity ignored the mounted shard")
	}
	// No mounted candidate: falls back to least-loaded ordering.
	cands[1].Mounted = false
	if got := argmax(scoreOf(Affinity{}, 0, 2, cands)); got != 0 {
		t.Errorf("affinity fallback picked the deeper queue")
	}
	// Two mounted candidates: load breaks the tie within the class.
	cands = []Candidate{
		{Shard: 0, QueueDepth: 9, Headroom: 1, Mounted: true},
		{Shard: 1, QueueDepth: 2, Headroom: 1, Mounted: true},
	}
	if got := argmax(scoreOf(Affinity{}, 0, 2, cands)); got != 1 {
		t.Errorf("affinity ignored load among mounted shards")
	}
	// A mounted shard with no live drives must not absorb traffic.
	cands = []Candidate{
		{Shard: 0, QueueDepth: 3, Headroom: 1},
		{Shard: 1, QueueDepth: 0, Headroom: 0, Mounted: true},
	}
	if got := argmax(scoreOf(Affinity{}, 0, 2, cands)); got != 0 {
		t.Errorf("affinity routed to a shard with zero headroom")
	}
}

// TestRouterNames pins the labels the tables and metrics key on.
func TestRouterNames(t *testing.T) {
	want := map[string]Router{
		"pass-through": PassThrough{},
		"round-robin":  RoundRobin{},
		"least-loaded": LeastLoaded{},
		"affinity":     Affinity{},
	}
	for name, r := range want {
		if r.Name() != name {
			t.Errorf("%T.Name() = %q, want %q", r, r.Name(), name)
		}
	}
}

func TestPickBestAllDead(t *testing.T) {
	inf := math.Inf(-1)
	if _, ok := pickBest([]float64{inf, inf, inf}, 1, 0); ok {
		t.Error("pickBest accepted a slate of -Inf scores")
	}
	if _, ok := pickBest([]float64{inf}, 1, 0); ok {
		t.Error("pickBest accepted a single -Inf score")
	}
	if idx, ok := pickBest([]float64{inf, -3, inf}, 1, 0); !ok || idx != 1 {
		t.Errorf("pickBest over {-Inf, -3, -Inf} = (%d, %v), want (1, true)", idx, ok)
	}
	// Ties among finite scores still resolve by the seeded hash.
	for ordinal := 0; ordinal < 32; ordinal++ {
		idx, ok := pickBest([]float64{-2, -2, -9}, 7, ordinal)
		if !ok || idx == 2 {
			t.Fatalf("ordinal %d: pickBest = (%d, %v)", ordinal, idx, ok)
		}
		if want := tieBreak(7, ordinal, 2); idx != want {
			t.Fatalf("ordinal %d: tie resolved to %d, want tieBreak's %d", ordinal, idx, want)
		}
	}
}

// TestPickBestNaN pins that a NaN score ranks as -Inf wherever it
// sits: it never wins, never joins a tie, and a slate of NaN and -Inf
// alone is unroutable. A NaN at index 0 used to win outright, since no
// comparison beats NaN.
func TestPickBestNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	for _, c := range []struct {
		name   string
		scores []float64
		want   int
		ok     bool
	}{
		{"NaN first", []float64{nan, -5}, 1, true},
		{"NaN last", []float64{-5, nan}, 0, true},
		{"NaN between", []float64{-9, nan, -1}, 2, true},
		{"NaN first beats nothing", []float64{nan, -7, -3, -7}, 2, true},
		{"all NaN", []float64{nan, nan}, 0, false},
		{"NaN and -Inf", []float64{nan, inf, nan}, 0, false},
	} {
		idx, ok := pickBest(c.scores, 1, 0)
		if ok != c.ok || (ok && idx != c.want) {
			t.Errorf("%s: pickBest(%v) = (%d, %v), want (%d, %v)", c.name, c.scores, idx, ok, c.want, c.ok)
		}
	}
	// A NaN never joins a tie: the tie-break picks among the two -2s.
	for ordinal := 0; ordinal < 32; ordinal++ {
		idx, ok := pickBest([]float64{nan, -2, nan, -2}, 7, ordinal)
		if want := 1 + 2*tieBreak(7, ordinal, 2); !ok || idx != want {
			t.Fatalf("ordinal %d: pickBest = (%d, %v), want (%d, true)", ordinal, idx, ok, want)
		}
	}
}
