package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/rand48"
)

// testModel builds a DLT4000 key-point model shared by the package's
// tests.
func testModel(t testing.TB, serial int64) *locate.Model {
	t.Helper()
	tape := geometry.MustGenerate(geometry.DLT4000(), serial)
	m, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyModel builds a small geometry for exhaustive tests.
func tinyModel(t testing.TB, serial int64) *locate.Model {
	t.Helper()
	tape := geometry.MustGenerate(geometry.Tiny(), serial)
	m, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomProblem builds a reproducible scheduling instance.
func randomProblem(t testing.TB, m *locate.Model, n int, seed int64) *Problem {
	t.Helper()
	rng := rand48.New(seed)
	reqs := make([]int, n)
	seen := make(map[int]bool, n)
	for i := 0; i < n; {
		v := rng.Intn(m.Segments())
		if seen[v] {
			continue
		}
		seen[v] = true
		reqs[i] = v
		i++
	}
	return &Problem{Start: rng.Intn(m.Segments()), Requests: reqs, Cost: m}
}

func TestProblemValidate(t *testing.T) {
	m := testModel(t, 1)
	good := &Problem{Start: 0, Requests: []int{1, 2}, Cost: m}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *Problem
	}{
		{"nil cost", &Problem{Start: 0, Requests: []int{1}}},
		{"negative start", &Problem{Start: -1, Requests: []int{1}, Cost: m}},
		{"start past end", &Problem{Start: m.Segments(), Requests: []int{1}, Cost: m}},
		{"negative request", &Problem{Start: 0, Requests: []int{-5}, Cost: m}},
		{"request past end", &Problem{Start: 0, Requests: []int{m.Segments()}, Cost: m}},
		{"multiseg request past end", &Problem{Start: 0, Requests: []int{m.Segments() - 1}, ReadLen: 2, Cost: m}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCheckPermutation(t *testing.T) {
	if err := CheckPermutation([]int{1, 2, 2, 3}, []int{2, 3, 1, 2}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if err := CheckPermutation([]int{1, 2}, []int{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := CheckPermutation([]int{1, 2}, []int{1, 1}); err == nil {
		t.Fatal("duplicate substitution accepted")
	}
	if err := CheckPermutation([]int{1, 2}, []int{1, 3}); err == nil {
		t.Fatal("foreign element accepted")
	}
	if err := CheckPermutation(nil, nil); err != nil {
		t.Fatal("empty permutation rejected")
	}
}

func TestByName(t *testing.T) {
	names := []string{"READ", "FIFO", "OPT", "SORT", "SLTF", "SLTF-C", "SCAN", "WEAVE", "LOSS", "LOSS-C", "LOSS-SPARSE", "AUTO"}
	for _, name := range names {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.Name(); got != name {
			t.Fatalf("ByName(%q).Name() = %q", name, got)
		}
	}
	if _, err := ByName("SSTF"); err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("bad name error: %v", err)
	}
}

func TestAllReturnsPaperAlgorithms(t *testing.T) {
	all := All(12)
	want := []string{"READ", "FIFO", "OPT", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS"}
	if len(all) != len(want) {
		t.Fatalf("All returned %d schedulers, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, s.Name(), want[i])
		}
	}
}

// Every scheduler must return a permutation of the requests, across
// batch sizes, duplicate requests, and both geometries. This is the
// paper's basic correctness contract.
func TestEverySchedulerPermutes(t *testing.T) {
	models := map[string]*locate.Model{
		"dlt":  testModel(t, 1),
		"tiny": tinyModel(t, 2),
	}
	scheds := []Scheduler{
		Read{}, FIFO{}, NewOPT(10), Sort{}, NewSLTF(),
		NewSLTFCoalesced(DefaultCoalesceThreshold), Scan{}, Weave{},
		NewLOSS(), NewLOSSCoalesced(DefaultCoalesceThreshold),
		NewSparseLOSS(), NewAuto(), Improved{Base: NewSLTF()},
	}
	for geom, m := range models {
		for _, n := range []int{0, 1, 2, 3, 7, 10, 40, 150} {
			p := randomProblem(t, m, n, int64(n)+17)
			// Inject a duplicate to exercise multiset handling.
			if n >= 3 {
				p.Requests[1] = p.Requests[0]
			}
			for _, s := range scheds {
				if o, ok := s.(OPT); ok && n > o.Limit() {
					continue
				}
				if _, ok := s.(Improved); ok && n > 40 {
					continue
				}
				plan, err := s.Schedule(p)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", geom, s.Name(), n, err)
				}
				if err := CheckPermutation(p.Requests, plan.Order); err != nil {
					t.Fatalf("%s/%s n=%d: %v", geom, s.Name(), n, err)
				}
			}
		}
	}
}

// Every scheduler must reject an invalid problem.
func TestSchedulersValidate(t *testing.T) {
	m := testModel(t, 1)
	bad := &Problem{Start: -1, Requests: []int{5}, Cost: m}
	for _, s := range []Scheduler{
		Read{}, FIFO{}, NewOPT(10), Sort{}, NewSLTF(), Scan{}, Weave{},
		NewLOSS(), NewSparseLOSS(), NewAuto(),
	} {
		if _, err := s.Schedule(bad); err == nil {
			t.Errorf("%s accepted an invalid problem", s.Name())
		}
	}
}

func TestPlanEstimateAndFinalHead(t *testing.T) {
	m := testModel(t, 1)
	p := &Problem{Start: 1000, Requests: []int{50000, 60000}, Cost: m}
	plan, err := FIFO{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Estimate(p)
	if b.Locates != 2 || b.Total() <= 0 {
		t.Fatalf("bad estimate: %+v", b)
	}
	if got := plan.FinalHead(p); got != 60001 {
		t.Fatalf("FinalHead = %d, want 60001", got)
	}
	empty := Plan{}
	if got := empty.FinalHead(p); got != 1000 {
		t.Fatalf("empty FinalHead = %d, want start", got)
	}
}

// With ReadLen 1 the estimate is the plain locate/read walk: each
// locate starts at the segment after the previous read, and the
// breakdown sums locates and reads and tracks the longest locate.
func TestPlanEstimateAccumulates(t *testing.T) {
	m := testModel(t, 1)
	order := []int{100000, 200000, 50000}
	p := &Problem{Start: 0, Requests: order, Cost: m}
	b := (&Plan{Order: order}).Estimate(p)
	if b.Locates != 3 {
		t.Fatalf("Locates = %d, want 3", b.Locates)
	}
	locates := []float64{m.LocateTime(0, 100000), m.LocateTime(100001, 200000), m.LocateTime(200001, 50000)}
	want, longest := 0.0, 0.0
	for _, lt := range locates {
		want += lt
		longest = math.Max(longest, lt)
	}
	if math.Abs(b.Locate-want) > 1e-9 {
		t.Fatalf("Locate = %g, want %g", b.Locate, want)
	}
	if b.MaxLocate != longest {
		t.Fatalf("MaxLocate = %g, want %g", b.MaxLocate, longest)
	}
	wantRead := m.ReadTime(100000) + m.ReadTime(200000) + m.ReadTime(50000)
	if math.Abs(b.Read-wantRead) > 1e-9 {
		t.Fatalf("Read = %g, want %g", b.Read, wantRead)
	}
	if b.Total() != b.Locate+b.Read {
		t.Fatal("Total != Locate+Read")
	}
	if got := b.PerLocate(); math.Abs(got-b.Total()/3) > 1e-12 {
		t.Fatalf("PerLocate = %g", got)
	}
}

func TestPlanEstimateEmpty(t *testing.T) {
	p := &Problem{Start: 0, Cost: testModel(t, 1)}
	b := (&Plan{}).Estimate(p)
	if b.Total() != 0 || b.PerLocate() != 0 || b.Locates != 0 {
		t.Fatal("empty schedule should be free")
	}
	if b.String() == "" {
		t.Fatal("Breakdown.String empty")
	}
}

// A perfectly sequential schedule costs pure reading: consecutive
// segments have zero locate cost.
func TestSequentialScheduleHasNoLocateCost(t *testing.T) {
	m := testModel(t, 1)
	order := make([]int, 100)
	for i := range order {
		order[i] = 5000 + i
	}
	p := &Problem{Start: 5000, Requests: order, Cost: m}
	if b := (&Plan{Order: order}).Estimate(p); b.Locate != 0 {
		t.Fatalf("sequential schedule locate cost = %g, want 0", b.Locate)
	}
}

// With no reads the head stays at the start; otherwise it rests on the
// segment after the last one read.
func TestPlanFinalHead(t *testing.T) {
	m := testModel(t, 1)
	p := &Problem{Start: 123, Cost: m}
	if got := (&Plan{}).FinalHead(p); got != 123 {
		t.Fatalf("FinalHead(empty) = %d, want start", got)
	}
	p = &Problem{Start: 0, Requests: []int{5, 900}, Cost: m}
	if got := (&Plan{Order: []int{5, 900}}).FinalHead(p); got != 901 {
		t.Fatalf("FinalHead = %d, want 901", got)
	}
}

// Reading the last segment leaves the head on it: there is no next
// segment to advance to.
func TestPlanFinalHeadClampsAtEnd(t *testing.T) {
	m := testModel(t, 1)
	last := m.Segments() - 1
	p := &Problem{Start: 0, Requests: []int{last}, Cost: m}
	if got := (&Plan{Order: []int{last}}).FinalHead(p); got != last {
		t.Fatalf("FinalHead after the last segment = %d, want %d", got, last)
	}
	if got := (&Plan{Order: []int{10}}).FinalHead(p); got != 11 {
		t.Fatalf("FinalHead after segment 10 = %d, want 11", got)
	}
}

func TestWholeTapePlanEstimate(t *testing.T) {
	m := testModel(t, 1)
	p := &Problem{Start: 0, Requests: []int{9, 5, 7}, Cost: m}
	plan, err := Read{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.WholeTape {
		t.Fatal("READ plan should be whole-tape")
	}
	if got := plan.Estimate(p).Total(); got != m.FullReadTime() {
		t.Fatalf("whole-tape estimate %g != FullReadTime %g", got, m.FullReadTime())
	}
	if plan.FinalHead(p) != 0 {
		t.Fatal("whole-tape plan should end rewound")
	}
}

func TestMultiSegmentHeadAdvance(t *testing.T) {
	m := testModel(t, 1)
	p := &Problem{Start: 0, Requests: []int{1000, 2000}, ReadLen: 64, Cost: m}
	plan, err := Sort{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.FinalHead(p); got != 2064 {
		t.Fatalf("FinalHead with ReadLen=64: %d, want 2064", got)
	}
	b := plan.Estimate(p)
	// 128 segments read in total.
	if b.Read < 120*0.02 || b.Read > 140*0.025 {
		t.Fatalf("multi-segment read time %g unreasonable", b.Read)
	}
}

func TestErrTooLargeWrapped(t *testing.T) {
	m := testModel(t, 1)
	p := randomProblem(t, m, 15, 3)
	_, err := NewOPT(10).Schedule(p)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}
