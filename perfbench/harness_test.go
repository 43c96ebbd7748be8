package main

import (
	"testing"
)

func TestTracerSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer(16)
	tr.begin(kTertiaryRun, 0)
	tr.begin(kCoreSchedule, 7)
	tr.fold(tr.now(), 50)
	tr.fold(tr.now(), 70)
	tr.begin(kLocateMatrix, 7)
	tr.end()
	tr.end()
	tr.end()

	st := tr.stats
	if st[kCoreSchedule].calls != 1 || st[kTertiaryRun].calls != 1 || st[kLocateMatrix].calls != 1 {
		t.Fatalf("calls: %+v", st)
	}
	if st[kLocateEval].calls != 2 || st[kLocateEval].busy != 120 {
		t.Fatalf("folded evaluations: %+v", st[kLocateEval])
	}
	core := st[kCoreSchedule]
	if want := core.busy - 120 - st[kLocateMatrix].busy; core.self != want {
		t.Fatalf("core self %d, want busy %d minus children = %d", core.self, core.busy, want)
	}
	if want := st[kTertiaryRun].busy - core.busy; st[kTertiaryRun].self != want {
		t.Fatalf("tertiary self %d, want %d", st[kTertiaryRun].self, want)
	}

	// Spans: run, schedule, matrix, then the folded record under the
	// schedule when it closed.
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	if tr.spans[0].parent != -1 || tr.spans[1].parent != 0 || tr.spans[2].parent != 1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	fold := tr.spans[3]
	if fold.kind != kLocateEval || fold.parent != 1 || fold.calls != 2 || fold.busy != 120 || fold.id != 7 {
		t.Fatalf("folded span: %+v", fold)
	}
}

func TestTracerStoreCap(t *testing.T) {
	tr := newTracer(2)
	for i := 0; i < 5; i++ {
		tr.begin(kFleetRoute, int64(i))
		tr.end()
	}
	if len(tr.spans) != 2 || tr.dropped != 3 || tr.stats[kFleetRoute].calls != 5 {
		t.Fatalf("stored %d, dropped %d, calls %d", len(tr.spans), tr.dropped, tr.stats[kFleetRoute].calls)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	tr.begin(kSimExecute, 1)
	if d := tr.end(); d != 0 {
		t.Fatalf("nil tracer end = %d", d)
	}
}

func TestMaxRate(t *testing.T) {
	steady := func(rate float64, p99 float64) rung {
		r := rung{ratePerHour: rate}
		for i := 0; i < 200; i++ {
			at := float64(i)
			r.arrivals = append(r.arrivals, at)
			r.finished = append(r.finished, at+1)
			r.sojourns = append(r.sojourns, 1)
		}
		r.sojourns[199] = p99
		r.sojourns[198] = p99
		r.sojourns[197] = p99
		return r
	}
	growing := steady(300, 10)
	growing.finished = growing.finished[:50] // the second half never finishes
	rungs := []rung{steady(100, 10), steady(200, latencyLimitSec+1), growing}
	if got := maxRate(rungs, 4); got != 100 {
		t.Fatalf("maxRate = %g, want 100 (200/h misses p99, 300/h grows)", got)
	}
	if !steady(1, 1).backlogStable(0) || growing.backlogStable(4) {
		t.Fatal("backlog verdicts wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Fatalf("median %g", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Fatalf("max %g", got)
	}
	if percentile(nil, 99) != 0 {
		t.Fatal("empty percentile")
	}
}
