package sim

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
)

// execFixture builds a tape, a host model from its key points, and a
// drive with the given fault mix (zero mix = no injector).
func execFixture(t testing.TB, serial int64, cfg fault.Config) (*locate.Model, *drive.Drive) {
	t.Helper()
	tape := geometry.MustGenerate(geometry.DLT4000(), serial)
	m, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	d := drive.New(tape)
	if cfg.Enabled() {
		d.AttachFaults(fault.New(cfg))
	}
	return m, d
}

func schedulePlan(t testing.TB, m *locate.Model, sched core.Scheduler, start int, reqs []int) (*core.Problem, core.Plan) {
	t.Helper()
	p := &core.Problem{Start: start, Requests: reqs, Cost: m}
	plan, err := sched.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, plan
}

// The acceptance gate: with fault injection disabled, the executor's
// timing, head movement and stats are bit-identical to the plain
// drive.ExecuteOrder path used by every existing experiment.
func TestExecutorEquivalentToExecuteOrderWithoutFaults(t *testing.T) {
	m, d1 := execFixture(t, 1, fault.Config{})
	_, d2 := execFixture(t, 1, fault.Config{})
	p, plan := schedulePlan(t, m, core.NewLOSS(), 0, []int{100000, 5000, 400000, 250123, 611111, 42})

	want, err := d1.ExecuteOrder(plan.Order, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Drive: d2}
	res, err := ex.Execute(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedSec != want {
		t.Fatalf("executor elapsed %.9f, ExecuteOrder %.9f: must be bit-identical", res.ElapsedSec, want)
	}
	if d1.Clock() != d2.Clock() || d1.Position() != d2.Position() || d1.Stats() != d2.Stats() {
		t.Fatal("drive state diverged between executor and ExecuteOrder")
	}
	if len(res.Served) != len(plan.Order) || len(res.Failed) != 0 {
		t.Fatalf("served %d failed %d, want all %d served", len(res.Served), len(res.Failed), len(plan.Order))
	}
	if res.Retries != 0 || res.Replans != 0 || res.Recalibrations != 0 || res.RecoverySec != 0 {
		t.Fatalf("recovery accounting non-zero without faults: %+v", res)
	}
}

// Whole-tape READ plans on a fault-free drive must keep using the
// streaming pass.
func TestExecutorWholeTapeEquivalentToReadEntireTape(t *testing.T) {
	m, d1 := execFixture(t, 1, fault.Config{})
	_, d2 := execFixture(t, 1, fault.Config{})
	p, plan := schedulePlan(t, m, core.Read{}, 0, []int{9, 100, 5})
	if !plan.WholeTape {
		t.Fatal("READ plan not whole-tape")
	}
	want, err := d1.ReadEntireTape()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Executor{Drive: d2}).Execute(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedSec != want || d1.Clock() != d2.Clock() {
		t.Fatalf("whole-tape executor %.6f, ReadEntireTape %.6f", res.ElapsedSec, want)
	}
	if len(res.Served) != 3 {
		t.Fatalf("served %d, want 3", len(res.Served))
	}
}

// sortedEqual reports whether a and b are equal as multisets.
func sortedEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// checkConservation asserts the executor's core invariant: every
// request is either served or failed, exactly once.
func checkConservation(t *testing.T, reqs []int, res ExecResult) {
	t.Helper()
	got := append(append([]int(nil), res.Served...), res.Failed...)
	if !sortedEqual(got, reqs) {
		t.Fatalf("request conservation violated: %d requests in, %d served + %d failed out",
			len(reqs), len(res.Served), len(res.Failed))
	}
}

func TestExecutorRetriesTransientFaults(t *testing.T) {
	m, d := execFixture(t, 1, fault.Config{TransientRate: 0.5, Seed: 7})
	reqs := []int{100000, 5000, 400000, 250123, 611111, 42, 33333, 98765}
	p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
	res, err := (&Executor{Drive: d}).Execute(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, reqs, res)
	if res.Retries == 0 {
		t.Fatal("30% transient rate produced no retries")
	}
	if res.RecoverySec <= 0 {
		t.Fatal("retries cost no recovery time")
	}
	if d.Stats().WaitSec <= 0 {
		t.Fatal("no backoff charged to the virtual clock")
	}
	if res.ElapsedSec <= 0 || res.RecoverySec >= res.ElapsedSec {
		t.Fatalf("accounting inconsistent: elapsed %.1f recovery %.1f", res.ElapsedSec, res.RecoverySec)
	}
}

func TestExecutorRecoversLostPositionByReplanning(t *testing.T) {
	m, d := execFixture(t, 1, fault.Config{LostRate: 0.15, Seed: 5})
	reqs := []int{100000, 5000, 400000, 250123, 611111, 42, 33333, 98765, 77777, 1234}
	p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
	res, err := (&Executor{Drive: d, Scheduler: core.NewLOSS()}).Execute(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, reqs, res)
	if res.Recalibrations == 0 || res.Replans == 0 {
		t.Fatalf("15%% lost rate on 10 requests: recalibrations=%d replans=%d, want both > 0",
			res.Recalibrations, res.Replans)
	}
	if d.Lost() {
		t.Fatal("execution finished with the drive still lost")
	}
	if d.Stats().Recalibrations != res.Recalibrations {
		t.Fatal("executor and drive disagree on recalibration count")
	}
}

func TestExecutorFailsMediaErrorsPermanently(t *testing.T) {
	cfg := fault.Config{MediaRate: 0.001, Seed: 11}
	inj := fault.New(cfg)
	// Build a request set with a known-bad segment in the middle.
	reqs := []int{100000, 5000, 400000}
	for s := 200000; s < 622000; s++ {
		if inj.MediaBad(s) {
			reqs = append(reqs, s)
			break
		}
	}
	if len(reqs) != 4 {
		t.Fatal("no media-bad segment found")
	}
	m, d := execFixture(t, 1, cfg)
	p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
	res, err := (&Executor{Drive: d}).Execute(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, reqs, res)
	if len(res.Failed) == 0 {
		t.Fatal("known media-bad request not failed")
	}
	found := false
	for _, f := range res.Failed {
		if f == reqs[3] {
			found = true
		}
	}
	if !found {
		t.Fatalf("failed set %v misses the media-bad segment %d", res.Failed, reqs[3])
	}
	if len(res.Served) != 3 {
		t.Fatalf("served %d of the 3 good requests", len(res.Served))
	}
}

// A tiny planning budget must degrade the replanner along LOSS → SLTF
// → SCAN instead of refusing to replan.
func TestExecutorDegradesSchedulerOnPlanningBudget(t *testing.T) {
	m, d := execFixture(t, 1, fault.Config{LostRate: 0.3, Seed: 13})
	reqs := make([]int, 0, 64)
	gen := locateSpread(m.Segments())
	for i := 0; i < 64; i++ {
		reqs = append(reqs, gen(i))
	}
	p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
	ex := &Executor{
		Drive:     d,
		Scheduler: core.NewLOSS(),
		// Budget below LOSS's 64*64 but above SLTF's 40*64.
		Policy: RetryPolicy{PlanningBudgetOps: 3000},
	}
	res, err := ex.Execute(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, reqs, res)
	if res.Replans == 0 {
		t.Skip("fault draw produced no replans at this seed")
	}
	if res.Fallbacks == 0 {
		t.Fatal("replans happened but the over-budget LOSS tier was never skipped")
	}
}

// locateSpread returns a deterministic spread of segments.
func locateSpread(total int) func(int) int {
	return func(i int) int { return (i*total/97 + 13) % total }
}

// Executions under the same fault seed are exactly reproducible.
func TestExecutorReproducible(t *testing.T) {
	run := func() ExecResult {
		m, d := execFixture(t, 1, fault.Default(21))
		reqs := []int{100000, 5000, 400000, 250123, 611111, 42, 33333, 98765}
		p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
		res, err := (&Executor{Drive: d}).Execute(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ElapsedSec != b.ElapsedSec || a.Retries != b.Retries || a.Replans != b.Replans ||
		a.Recalibrations != b.Recalibrations || len(a.Failed) != len(b.Failed) {
		t.Fatalf("executor runs diverged: %+v vs %+v", a, b)
	}
}

// Saturated fault rates must terminate: every request ends up served
// or failed, never looped forever.
func TestExecutorTerminatesUnderSaturatedFaults(t *testing.T) {
	for _, cfg := range []fault.Config{
		{TransientRate: 1, Seed: 1},
		{OvershootRate: 1, Seed: 2},
		{LostRate: 1, Seed: 3},
		{MediaRate: 1, Seed: 4},
		{TransientRate: 0.9, OvershootRate: 0.05, LostRate: 0.05, MediaRate: 0.5, Seed: 5},
	} {
		m, d := execFixture(t, 1, cfg)
		reqs := []int{100000, 5000, 400000, 250123}
		p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
		res, err := (&Executor{Drive: d, Policy: RetryPolicy{MaxRetries: 2, MaxReplans: 4}}).Execute(p, plan)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkConservation(t, reqs, res)
	}
}

func TestExecutorRejectsInvalidSetup(t *testing.T) {
	if _, err := (&Executor{}).Execute(&core.Problem{}, core.Plan{}); err == nil {
		t.Fatal("nil drive accepted")
	}
	m, d := execFixture(t, 1, fault.Config{})
	_ = m
	if _, err := (&Executor{Drive: d}).Execute(nil, core.Plan{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := (&Executor{Drive: d}).Execute(&core.Problem{}, core.Plan{}); err == nil {
		t.Fatal("nil cost model accepted")
	}
}

// Every served request's completion offset must decompose exactly into
// its ServeDetail phases — the latency attribution layer sums them
// back and asserts conservation against the sojourn.
func TestExecutorDetailSumsToCompletion(t *testing.T) {
	for _, cfg := range []fault.Config{
		{}, // fault-free
		fault.Default(7),
		{TransientRate: 0.3, OvershootRate: 0.1, LostRate: 0.02, MediaRate: 0.01, Seed: 11},
	} {
		m, d := execFixture(t, 1, cfg)
		reqs := []int{100000, 5000, 400000, 250123, 611111, 42, 33333, 98765}
		p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
		res, err := (&Executor{Drive: d}).Execute(p, plan)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(res.Detail) != len(res.Served) || len(res.Detail) != len(res.Completions) {
			t.Fatalf("%+v: detail misaligned: %d details, %d served, %d completions",
				cfg, len(res.Detail), len(res.Served), len(res.Completions))
		}
		for i, det := range res.Detail {
			sum := det.BeginSec + det.RetrySec + det.LocateSec + det.ReadSec
			if diff := math.Abs(sum - res.Completions[i]); diff > 1e-9 {
				t.Fatalf("%+v: request %d: detail sum %.12f vs completion %.12f (off by %g)",
					cfg, res.Served[i], sum, res.Completions[i], diff)
			}
			if det.BeginSec < 0 || det.RetrySec < 0 || det.LocateSec < 0 || det.ReadSec < 0 {
				t.Fatalf("%+v: request %d: negative phase: %+v", cfg, res.Served[i], det)
			}
		}
	}
}

// Attaching a span trace must not change one bit of the execution:
// same result, same drive clock, same head position.
func TestExecutorSpansDoNotPerturbTiming(t *testing.T) {
	run := func(tr *obs.Tracer) (ExecResult, float64, int) {
		m, d := execFixture(t, 1, fault.Default(21))
		reqs := []int{100000, 5000, 400000, 250123, 611111, 42, 33333, 98765}
		p, plan := schedulePlan(t, m, core.NewLOSS(), 0, reqs)
		ex := &Executor{Drive: d}
		if tr != nil {
			h := tr.StartTrace()
			ex.Trace = h
			ex.Parent = h.Start("exec", nil, 0)
		}
		res, err := ex.Execute(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res, d.Clock(), d.Position()
	}
	bare, clk1, pos1 := run(nil)
	tr := obs.NewTracer(4096)
	traced, clk2, pos2 := run(tr)
	if !reflect.DeepEqual(bare, traced) || clk1 != clk2 || pos1 != pos2 {
		t.Fatalf("span tracing perturbed the execution:\nbare:   %+v clk=%v pos=%d\ntraced: %+v clk=%v pos=%d",
			bare, clk1, pos1, traced, clk2, pos2)
	}
	// The trace must actually contain serve spans with verdicts.
	spans := tr.Spans()
	serves := 0
	for _, s := range spans {
		if s.Name == "serve" {
			serves++
		}
	}
	if serves == 0 {
		t.Fatalf("no serve spans recorded among %d spans", len(spans))
	}
}
