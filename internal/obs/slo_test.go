package obs

import (
	"bytes"
	"strings"
	"testing"
)

func newTestEngine(t *testing.T, cfg SLOConfig) *SLOEngine {
	t.Helper()
	e, err := NewSLOEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSLOEmptyWindow pins the idle-system contract: no observations
// means SLI 1, zero burn, and a fully intact budget — never NaN.
func TestSLOEmptyWindow(t *testing.T) {
	e := newTestEngine(t, SLOConfig{Objectives: []Objective{{Name: "avail", Target: 0.999}}})
	e.Advance(1e6)
	for _, os := range e.Status() {
		if os.BudgetConsumed != 0 || os.BudgetRemaining != 1 {
			t.Fatalf("empty budget consumed %g remaining %g", os.BudgetConsumed, os.BudgetRemaining)
		}
		for _, ws := range os.Windows {
			if ws.SLI != 1 || ws.Burn != 0 {
				t.Fatalf("empty window %gs SLI %g burn %g, want 1/0", ws.WindowSec, ws.SLI, ws.Burn)
			}
		}
	}
	if alerts := e.Alerts(); len(alerts) != 0 {
		t.Fatalf("empty engine produced %d alerts", len(alerts))
	}
}

func TestSLOWindowEviction(t *testing.T) {
	e := newTestEngine(t, SLOConfig{
		Objectives: []Objective{{Name: "avail", Target: 0.9}},
		WindowsSec: []float64{100},
		Rules:      []BurnRule{}, // no rules: isolate the window math
	})
	e.Record("standard", 10, false, 0) // bad at t=10
	e.Record("standard", 50, true, 0)
	st := e.Status()[0]
	if st.Windows[0].Total != 2 || st.Windows[0].Bad != 1 {
		t.Fatalf("window %d/%d, want 2 total 1 bad", st.Windows[0].Total, st.Windows[0].Bad)
	}
	// t=110: the bad sample at t=10 falls out (cut is at <= now-100).
	e.Advance(110)
	st = e.Status()[0]
	if st.Windows[0].Total != 1 || st.Windows[0].Bad != 0 {
		t.Fatalf("after eviction window %d/%d, want 1/0", st.Windows[0].Total, st.Windows[0].Bad)
	}
	if st.Windows[0].SLI != 1 {
		t.Fatalf("after eviction SLI %g, want 1", st.Windows[0].SLI)
	}
	// The cumulative budget is not a window: it still remembers the bad.
	if st.Total != 2 || st.Bad != 1 {
		t.Fatalf("cumulative %d/%d, want 2/1", st.Total, st.Bad)
	}
}

// TestSLOWindowCompactionClearsPrefix exercises the head compaction
// path (head > len/2 and > 16) and checks the vacated prefix holds no
// stale samples.
func TestSLOWindowCompactionClearsPrefix(t *testing.T) {
	w := &slidingWindow{lenSec: 10}
	for i := 0; i < 64; i++ {
		w.add(float64(i), i%2 == 0)
	}
	w.advance(60) // evicts at <= 50: 51 samples, well past the compaction threshold
	if w.head != 0 {
		t.Fatalf("head %d after compaction, want 0", w.head)
	}
	if w.total != 13 {
		t.Fatalf("window holds %d samples, want 13 (t=51..63)", w.total)
	}
	tail := w.samples[len(w.samples):cap(w.samples)]
	for i, s := range tail {
		if s != (sloSample{}) {
			t.Fatalf("vacated slot %d still holds %+v", i, s)
		}
	}
}

func TestSLOBurnAlertFireResolve(t *testing.T) {
	e := newTestEngine(t, SLOConfig{
		Objectives: []Objective{{Name: "avail", Target: 0.9}},
		Rules:      []BurnRule{{Name: "page", ShortSec: 10, LongSec: 100, Burn: 2}},
	})
	// Burn threshold 2 at target 0.9 means bad fraction >= 0.2 in both
	// windows. Three bads in a row: short 3/3, long 3/3 — fires.
	for i := 0; i < 3; i++ {
		e.Record("standard", float64(i), false, 0)
	}
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != "fire" || alerts[0].Rule != "page" {
		t.Fatalf("after 3 bads alerts = %+v, want one fire", alerts)
	}
	// Time passes: the short window empties (burn 0) while the long
	// still holds the bads — the alert resolves on the short leg.
	e.Advance(50)
	alerts = e.Alerts()
	if len(alerts) != 2 || alerts[1].State != "resolve" {
		t.Fatalf("after advance alerts = %+v, want fire then resolve", alerts)
	}
	if alerts[1].ShortBurn != 0 {
		t.Fatalf("resolve short burn %g, want 0", alerts[1].ShortBurn)
	}
}

func TestSLOClassFilter(t *testing.T) {
	e := newTestEngine(t, SLOConfig{
		Objectives: []Objective{{Name: "std", Class: "standard", Target: 0.9}},
		Rules:      []BurnRule{},
	})
	e.Record("standard", 1, true, 0)
	e.Record("best-effort", 2, false, 0)
	st := e.Status()[0]
	if st.Total != 1 || st.Bad != 0 {
		t.Fatalf("class filter let %d/%d through, want 1/0", st.Total, st.Bad)
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	e := newTestEngine(t, SLOConfig{
		Objectives: []Objective{{Name: "lat", Target: 0.9, LatencySec: 100}},
		Rules:      []BurnRule{},
	})
	e.ObserveEvent(Event{Class: "standard", Outcome: OutcomeServed, ArrivalSec: 0, DoneSec: 50})
	e.ObserveEvent(Event{Class: "standard", Outcome: OutcomeServed, ArrivalSec: 100, DoneSec: 250})
	st := e.Status()[0]
	if st.Total != 2 || st.Bad != 1 {
		t.Fatalf("latency objective scored %d/%d, want 2 total 1 bad (150s > 100s)", st.Total, st.Bad)
	}
}

func TestSLOBudgetNeverNegative(t *testing.T) {
	e := newTestEngine(t, SLOConfig{
		Objectives: []Objective{{Name: "avail", Target: 0.99}},
		Rules:      []BurnRule{},
	})
	for i := 0; i < 10; i++ {
		e.Record("standard", float64(i), false, 0)
	}
	st := e.Status()[0]
	if st.BudgetRemaining != 0 {
		t.Fatalf("overspent budget remaining %g, want clamped 0", st.BudgetRemaining)
	}
	if st.BudgetConsumed <= 1 {
		t.Fatalf("overspent budget consumed %g, want > 1", st.BudgetConsumed)
	}
}

func TestSLOConfigValidation(t *testing.T) {
	bad := []SLOConfig{
		{Objectives: []Objective{{Name: "", Target: 0.9}}},
		{Objectives: []Objective{{Name: "x", Target: 0}}},
		{Objectives: []Objective{{Name: "x", Target: 1}}},
		{WindowsSec: []float64{-1}},
		{Rules: []BurnRule{{Name: "r", ShortSec: 100, LongSec: 10, Burn: 1}}},
		{Rules: []BurnRule{{Name: "r", ShortSec: 10, LongSec: 100, Burn: 0}}},
	}
	for i, cfg := range bad {
		if _, err := NewSLOEngine(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSLOWriteReportDeterministic(t *testing.T) {
	run := func() string {
		e := newTestEngine(t, SLOConfig{Objectives: []Objective{
			{Name: "avail", Target: 0.995},
			{Name: "lat", Target: 0.95, LatencySec: 10},
		}})
		for i := 0; i < 200; i++ {
			e.Record("standard", float64(i)*7, i%17 != 0, float64(i%30))
		}
		var buf bytes.Buffer
		if err := e.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("identical replays rendered different reports")
	}
	if !strings.Contains(a, "# slo report") || !strings.Contains(a, "# alerts") {
		t.Fatalf("report missing sections:\n%s", a)
	}
}

func TestHealthTrackerScore(t *testing.T) {
	h := NewHealthTracker(100)
	if h.Score("shard=0") != 1 {
		t.Fatal("unseen key must score 1")
	}
	h.Observe("shard=0", 1, true)
	h.Observe("shard=0", 2, false)
	if got := h.Score("shard=0"); got != 0.5 {
		t.Fatalf("score %g, want 0.5", got)
	}
	// The bad sample expires; the good one (t=150 keeps at > 50) would
	// too, so re-observe a good and check recovery.
	h.Observe("shard=0", 150, true)
	if got := h.Score("shard=0"); got != 1 {
		t.Fatalf("score after recovery %g, want 1", got)
	}
	if keys := h.Keys(); len(keys) != 1 || keys[0] != "shard=0" {
		t.Fatalf("keys %v", keys)
	}
	var nilTracker *HealthTracker
	nilTracker.Observe("x", 0, true)
	nilTracker.Advance(1)
	if nilTracker.Score("x") != 1 || nilTracker.Keys() != nil {
		t.Fatal("nil tracker is not a no-op")
	}
}

// TestHistogramQuantileSaturation pins the exact-to-bucketed
// transition: past maxExactSamples retained samples the histogram
// keeps counting and falls back to bucket interpolation, and its
// estimates stay inside the observed range.
func TestHistogramQuantileSaturation(t *testing.T) {
	h := newHistogram()
	n := maxExactSamples + 3
	for i := 0; i < n; i++ {
		h.Observe(float64(i%1000) + 0.5)
	}
	if !h.SaturatedQuantiles() {
		t.Fatalf("%d observations did not saturate the %d-sample retention", n, maxExactSamples)
	}
	if h.Count() != n {
		t.Fatalf("count %d, want %d (counting must survive saturation)", h.Count(), n)
	}
	// Bucket interpolation can overshoot the observed max up to the
	// containing bucket's upper bound (1024 here), never past it.
	for _, p := range []float64{0, 50, 95, 99, 100} {
		q := h.Quantile(p)
		if q < 0 || q > 1024 || q != q {
			t.Fatalf("saturated p%g = %g outside [0, 1024]", p, q)
		}
	}
	if p50, p99 := h.Quantile(50), h.Quantile(99); p50 > p99 {
		t.Fatalf("quantiles not monotone: p50 %g > p99 %g", p50, p99)
	}

	// Just under the cap stays exact.
	exact := newHistogram()
	exact.Observe(1)
	exact.Observe(3)
	if exact.SaturatedQuantiles() {
		t.Fatal("2 observations reported saturated")
	}
	if got := exact.Quantile(50); got != 2 {
		t.Fatalf("exact p50 = %g, want 2 (rank interpolation)", got)
	}

	// Empty histogram: zeros, never NaN.
	empty := newHistogram()
	if got := empty.Quantile(99); got != 0 {
		t.Fatalf("empty p99 = %g, want 0", got)
	}
}
