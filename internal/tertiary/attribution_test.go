package tertiary

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/obs"
)

// attributionFixture is a fault-injected multi-drive run with enough
// arrival pressure that batches queue behind the robot arm and the
// executor exercises retries, replans and recalibrations.
func attributionFixture(t *testing.T, spans *obs.Tracer) ([]Completion, Metrics) {
	t.Helper()
	cfg := smallCfg(2)
	cfg.BatchLimit = 6
	cfg.Faults = fault.Config{TransientRate: 0.15, OvershootRate: 0.05, LostRate: 0.01, MediaRate: 0.005, Seed: 13}
	cfg.SpanTrace = spans.StartTrace()
	cat := smallCatalog(t, cfg, 12)
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := 0; i < 40; i++ {
		serial := cfg.Tapes[i%len(cfg.Tapes)]
		reqs = append(reqs, Request{
			ObjectID: fmt.Sprintf("t%d/o%d", serial, (i*5)%12),
			Arrival:  float64(i) * 3,
		})
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return done, m
}

// The attribution invariant: for every served request the six phase
// components sum back to the measured sojourn, within floating-point
// telescoping error.
func TestAttributionConservation(t *testing.T) {
	done, m := attributionFixture(t, nil)
	if m.Served == 0 || m.Retries == 0 {
		t.Fatalf("fixture too tame: served=%d retries=%d", m.Served, m.Retries)
	}
	mounted := false
	for _, c := range done {
		if e := c.AttributionError(); e > 1e-9 {
			t.Fatalf("request %s: sojourn %.12f but components sum %.12f (off by %g)",
				c.ObjectID, c.Latency(), c.Attribution.Sum(), e)
		}
		a := c.Attribution
		for _, v := range []float64{a.QueueSec, a.RobotSec, a.MountSec, a.LocateSec, a.TransferSec, a.RetrySec} {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("request %s: bad component in %+v", c.ObjectID, a)
			}
		}
		if a.MountSec > 0 {
			mounted = true
		}
		if a.TransferSec <= 0 {
			t.Fatalf("request %s: non-positive transfer %g", c.ObjectID, a.TransferSec)
		}
	}
	if !mounted {
		t.Fatal("no request carries mount cost; fixture never exchanged a cartridge")
	}
}

// Span tracing is pure accounting: a traced run must produce exactly
// the completions (including attributions) and metrics of an untraced
// one.
func TestLibrarySpansDoNotPerturbRun(t *testing.T) {
	bareDone, bareM := attributionFixture(t, nil)
	tr := obs.NewTracer(1 << 16)
	tracedDone, tracedM := attributionFixture(t, tr)
	if !reflect.DeepEqual(bareDone, tracedDone) || bareM != tracedM {
		t.Fatal("span tracing perturbed the run")
	}
	// And the trace must cover the whole hierarchy.
	want := map[string]bool{"run": false, "batch": false, "exchange": false,
		"serve": false, "request": false, "locate": false, "read": false}
	for _, s := range tr.Spans() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("no %q span recorded", name)
		}
	}
}

// The attribution table renders deterministically and reports the
// conservation defect.
func TestWriteAttribution(t *testing.T) {
	done, _ := attributionFixture(t, nil)
	var a, b bytes.Buffer
	if err := WriteAttribution(&a, done); err != nil {
		t.Fatal(err)
	}
	if err := WriteAttribution(&b, done); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("attribution table is not byte-deterministic")
	}
	out := a.String()
	if !strings.Contains(out, "object") || !strings.Contains(out, "max |sojourn - sum(components)|") {
		t.Fatalf("attribution table malformed:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != len(done)+2 {
		t.Fatalf("table has %d lines for %d completions", lines, len(done))
	}
}

// Per-cell span capture in the sweep is deterministic: the same sweep
// at 1 and 8 workers yields identical spans, completions and exports.
func TestSweepSpanDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) []Cell {
		cells, err := Sweep(SweepConfig{
			RatesPerHour: []float64{120, 480},
			DriveCounts:  []int{2},
			BatchLimits:  []int{8},
			Requests:     24,
			Objects:      64,
			TapeCount:    2,
			Faults:       fault.Config{TransientRate: 0.05, LostRate: 0.01},
			Seed:         5,
			Workers:      workers,
			SpanCap:      8192,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	one, eight := run(1), run(8)
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("sweep cells (spans, completions) differ across worker counts")
	}
	export := func(cells []Cell) []byte {
		var sets []obs.TraceSet
		for i, c := range cells {
			sets = append(sets, obs.TraceSet{Name: fmt.Sprintf("cell %d", i), Spans: c.Spans})
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, sets); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(export(one), export(eight)) {
		t.Fatal("chrome trace export differs across worker counts")
	}
	for _, c := range one {
		if len(c.Spans) == 0 || len(c.Completions) == 0 {
			t.Fatalf("cell %+v captured no spans/completions", c.Metrics.Served)
		}
	}
}
