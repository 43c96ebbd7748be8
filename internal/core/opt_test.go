package core

import (
	"fmt"
	"math"
	"testing"
)

// OPT must never lose to any other algorithm: it is the optimum.
func TestOPTDominatesEverything(t *testing.T) {
	m := testModel(t, 1)
	others := []Scheduler{FIFO{}, Sort{}, NewSLTF(), Scan{}, Weave{}, NewLOSS(), NewSparseLOSS()}
	for seed := int64(0); seed < 12; seed++ {
		n := 2 + int(seed)%7
		p := randomProblem(t, m, n, seed)
		opt, err := NewOPT(10).Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		optCost := opt.Estimate(p).Total()
		for _, s := range others {
			plan, err := s.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			if c := plan.Estimate(p).Total(); c < optCost-1e-6 {
				t.Fatalf("seed %d n=%d: %s (%.3f) beat OPT (%.3f)", seed, n, s.Name(), c, optCost)
			}
		}
	}
}

// Held-Karp must find exactly the permutation-search optimum, which
// is how the paper's OPT was implemented.
func TestOPTMatchesBruteForce(t *testing.T) {
	m := testModel(t, 2)
	for seed := int64(0); seed < 16; seed++ {
		n := 2 + int(seed)%8 // up to 9: 362880 permutations
		p := randomProblem(t, m, n, seed*31+7)
		opt, err := NewOPT(10).Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		optLocate := opt.Estimate(p).Locate
		_, bruteCost := bruteForce(p)
		if math.Abs(optLocate-bruteCost) > 1e-6 {
			t.Fatalf("seed %d n=%d: Held-Karp %.4f != brute force %.4f", seed, n, optLocate, bruteCost)
		}
	}
}

// With multi-segment reads the head lands further along; OPT must
// account for it in the edge weights.
func TestOPTMultiSegment(t *testing.T) {
	m := testModel(t, 1)
	p := randomProblem(t, m, 6, 99)
	p.ReadLen = 512
	opt, err := NewOPT(10).Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	optCost := opt.Estimate(p).Total()
	_, bruteCost := bruteForce(p)
	// bruteForce reports locate-only cost; add the fixed read time.
	read := opt.Estimate(p).Read
	if math.Abs(optCost-(bruteCost+read)) > 1e-6 {
		t.Fatalf("multi-segment OPT %.4f != brute %.4f + read %.4f", optCost, bruteCost, read)
	}
}

func TestNewOPTClampsLimit(t *testing.T) {
	if NewOPT(100).Limit() != 24 {
		t.Fatal("limit should clamp at 24")
	}
	if NewOPT(-3).Limit() != 1 {
		t.Fatal("limit should floor at 1")
	}
}

func TestOPTSingleRequest(t *testing.T) {
	m := testModel(t, 1)
	p := &Problem{Start: 5, Requests: []int{1234}, Cost: m}
	plan, err := NewOPT(10).Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != 1 || plan.Order[0] != 1234 {
		t.Fatalf("bad single-request plan: %v", plan.Order)
	}
}

// The paper's headline for OPT: with batches of 10, retrieval rate
// improves from ~50 to ~93 I/Os per hour.
func TestOPTBatchOf10Rate(t *testing.T) {
	m := testModel(t, 1)
	var fifoTotal, optTotal float64
	const trials = 30
	for seed := int64(0); seed < trials; seed++ {
		p := randomProblem(t, m, 10, seed*13+1)
		f, err := FIFO{}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOPT(10).Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		fifoTotal += f.Estimate(p).Total()
		optTotal += o.Estimate(p).Total()
	}
	fifoRate := 3600 * 10 * trials / fifoTotal
	optRate := 3600 * 10 * trials / optTotal
	if fifoRate < 40 || fifoRate > 60 {
		t.Errorf("FIFO rate %.1f IO/h, paper ~50", fifoRate)
	}
	if optRate < 80 || optRate > 110 {
		t.Errorf("OPT rate %.1f IO/h, paper ~93", optRate)
	}
}

// When no complete path has a finite cost (every locate +Inf or NaN)
// OPT returns the requests in input order. The arena is warmed at a
// different size first, so a backtrack over parent entries left by
// an earlier call would show up as a non-permutation.
func TestOPTNoFinitePathKeepsInputOrder(t *testing.T) {
	m := testModel(t, 1)
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		for _, n := range []int{2, 6, 9} {
			if _, err := NewOPT(12).Schedule(randomProblem(t, m, n+1, int64(n))); err != nil {
				t.Fatal(err)
			}
			w := make([]float64, (n+1)*n)
			for i := range w {
				w[i] = bad
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = n - 1 - i
			}
			p := matrixProblem(w, perm, 1)
			plan, err := NewOPT(12).Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			equalOrder(t, fmt.Sprintf("n=%d weights=%v", n, bad), plan.Order, p.Requests)
		}
	}
}
