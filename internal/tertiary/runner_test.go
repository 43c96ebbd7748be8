package tertiary

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fault"
)

// buildTwinLibrary builds a 4-tape store shaped like the sweep's, and
// a request stream over it.
func buildTwinLibrary(t *testing.T, drives, batchLimit int) (*Library, []Request) {
	t.Helper()
	const tapes, objects, objSegs = 4, 256, 32
	catalog := NewCatalog()
	serials := make([]int64, tapes)
	for tp := 0; tp < tapes; tp++ {
		serials[tp] = int64(4000 + tp)
	}
	lib0, err := New(Config{Tapes: serials}, mustSweepCatalog(t, catalog, serials, objects, objSegs))
	if err != nil {
		t.Fatal(err)
	}
	lib := lib0.Clone(Config{
		Tapes:      serials,
		Drives:     drives,
		BatchLimit: batchLimit,
		Scheduler:  core.NewLOSS(),
	})
	stream, err := sweepStream(240, 200, 424242, tapes, objects)
	if err != nil {
		t.Fatal(err)
	}
	return lib, stream
}

func mustSweepCatalog(t *testing.T, catalog *Catalog, serials []int64, objects, objSegs int) *Catalog {
	t.Helper()
	for ti, serial := range serials {
		for o := 0; o < objects; o++ {
			if err := catalog.Put(Object{
				ID:       SweepObjectID(ti, o),
				Tape:     serial,
				Start:    o * 2048,
				Segments: objSegs,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return catalog
}

// driveRunner feeds the stream through the incremental Runner exactly
// as the fleet's routing tier does: advance to each arrival timestamp,
// offer every request carrying it, repeat, then drain.
func driveRunner(t *testing.T, lib *Library, stream []Request) ([]Completion, Metrics) {
	t.Helper()
	r, err := lib.StartRun()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stream); {
		at := stream[i].Arrival
		if err := r.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		for ; i < len(stream) && stream[i].Arrival == at; i++ {
			if err := r.Offer(stream[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	comps, m, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return comps, m
}

// TestRunnerMatchesRun pins the Runner contract: a runner fed a Run
// call's requests between AdvanceTo calls at their own timestamps
// produces bit-identical completions and metrics to that Run call,
// with and without lifecycle faults. This is the equivalence the
// fleet's single-shard test builds on.
func TestRunnerMatchesRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(serials []int64) Config
	}{
		{"quiesce", func(serials []int64) Config {
			return Config{Tapes: serials, Drives: 2, BatchLimit: 8, Scheduler: core.NewLOSS()}
		}},
		{"lifecycle", func(serials []int64) Config {
			return Config{Tapes: serials, Drives: 2, BatchLimit: 8,
				QueueCap: 16, DeadlineSec: 4000,
				Lifecycle: fault.LifecycleConfig{
					DriveMTTFSec:      3000,
					DriveMTTRSec:      600,
					RobotStallRate:    0.05,
					CartridgeLossRate: 0.02,
					Seed:              99,
				}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lib, stream := buildTwinLibrary(t, 2, 8)
			lib = lib.Clone(tc.cfg(lib.Tapes()))
			wantComps, wantM, err := lib.Run(stream)
			if err != nil {
				t.Fatal(err)
			}
			gotComps, gotM := driveRunner(t, lib, stream)
			if gotM != wantM {
				t.Errorf("metrics diverge:\nrunner: %+v\nrun:    %+v", gotM, wantM)
			}
			if !reflect.DeepEqual(gotComps, wantComps) {
				t.Errorf("completions diverge: runner %d vs run %d", len(gotComps), len(wantComps))
			}
		})
	}
}

// TestRunnerProbes exercises the routing probes mid-run: the queue
// depth counts an offered request until it dispatches, and a mounted
// cartridge shows up in Mounted.
func TestRunnerProbes(t *testing.T) {
	lib, stream := buildTwinLibrary(t, 1, 4)
	r, err := lib.StartRun()
	if err != nil {
		t.Fatal(err)
	}
	if d := r.QueueDepth(); d != 0 {
		t.Fatalf("fresh runner queue depth %d", d)
	}
	if h := r.Headroom(); h != 1 {
		t.Fatalf("fresh runner headroom %g", h)
	}
	req := stream[0]
	if err := r.Offer(req); err != nil {
		t.Fatal(err)
	}
	if d := r.QueueDepth(); d != 1 {
		t.Fatalf("queue depth after offer %d, want 1", d)
	}
	// Advance far enough that the request mounted and completed.
	if err := r.AdvanceTo(req.Arrival + 7200); err != nil {
		t.Fatal(err)
	}
	if d := r.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after drain %d, want 0", d)
	}
	o, _ := lib.catalog.Get(req.ObjectID)
	if !r.Mounted(o.Tape) {
		t.Errorf("cartridge %d not reported mounted after serving", o.Tape)
	}
	if r.CartridgeLost(o.Tape) {
		t.Errorf("fault-free run reports cartridge %d lost", o.Tape)
	}
	if _, _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerErrors pins the misuse surface: offers behind the clock,
// unknown objects, slots that do not hold the request's object, use
// after Finish.
func TestRunnerErrors(t *testing.T) {
	lib, stream := buildTwinLibrary(t, 1, 4)
	r, err := lib.StartRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Offer(Request{ObjectID: "no-such", Arrival: 1}); err == nil {
		t.Error("unknown object accepted")
	}
	// A slot is trusted only when it holds the request's object.
	slot := lib.Slot(stream[0].ObjectID)
	other := (slot + 1) % len(lib.Objects())
	for _, bad := range []int{-1, other, len(lib.Objects())} {
		req := Request{ObjectID: stream[0].ObjectID, Arrival: 1}
		if err := r.OfferRouted(req, bad, ""); err == nil {
			t.Errorf("offer at slot %d for the object in slot %d accepted", bad, slot)
		}
		if err := r.RecordHit(req, bad, "", 2, Attribution{}); err == nil {
			t.Errorf("hit at slot %d for the object in slot %d accepted", bad, slot)
		}
	}
	if len(r.Terminals()) != 0 || r.QueueDepth() != 0 {
		t.Fatal("a rejected offer or hit left a trace")
	}
	if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: 100}); err != nil {
		t.Fatal(err)
	}
	if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: 50}); err == nil ||
		!strings.Contains(err.Error(), "behind the clock") {
		t.Errorf("out-of-order offer error = %v", err)
	}
	if err := r.AdvanceTo(math.NaN()); err == nil {
		t.Error("AdvanceTo(NaN) accepted")
	}
	if err := r.AdvanceTo(5000); err != nil {
		t.Fatal(err)
	}
	// Serving the offered request moved the clock past its arrival;
	// an offer just behind the clock must be refused.
	if now := r.Now(); now > 101 {
		if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: now - 1}); err == nil {
			t.Error("offer behind the advanced clock accepted")
		}
	} else {
		t.Fatalf("clock did not advance past the served request (now %g)", now)
	}
	if _, _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := r.Offer(Request{ObjectID: stream[0].ObjectID, Arrival: 9999}); err == nil {
		t.Error("offer after Finish accepted")
	}
	if err := r.AdvanceTo(9999); err == nil {
		t.Error("advance after Finish accepted")
	}
	if _, _, err := r.Finish(); err == nil {
		t.Error("double Finish accepted")
	}
}

// TestRunnerSkipLeavesProbes pins the quiescence skip's contract from
// the router's side: an AdvanceTo that lands on a settled loop no later
// than its next event — at the clock, behind it, inside the idle gap,
// or on the event's own instant — returns without stepping and leaves every probe the fleet reads
// (Now, QueueDepth, Headroom, Mounted, CartridgeLost) and the recorded
// completions exactly as they were.
func TestRunnerSkipLeavesProbes(t *testing.T) {
	lib, stream := buildTwinLibrary(t, 2, 4)
	lib = lib.Clone(Config{Tapes: lib.Tapes(), Drives: 2, BatchLimit: 4, Scheduler: core.NewLOSS(),
		Lifecycle: fault.LifecycleConfig{DriveMTTFSec: 3000, DriveMTTRSec: 600, Seed: 7}})
	r, err := lib.StartRun()
	if err != nil {
		t.Fatal(err)
	}
	// Offer a burst at one instant so both drives are busy and work
	// stays queued behind them.
	at := stream[0].Arrival
	if err := r.AdvanceTo(at); err != nil {
		t.Fatal(err)
	}
	for _, req := range stream[:24] {
		req.Arrival = at
		if err := r.Offer(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AdvanceTo(at + 1); err != nil {
		t.Fatal(err)
	}
	read := func() probes {
		p := runnerProbes(r, lib.Tapes())
		p.Completed = slices.Clone(p.Completed)
		return p
	}
	before := read()
	if before.Depth == 0 || !slices.Contains(before.Mounted, true) {
		t.Fatalf("burst left no queued work or no mounted cartridge: %+v", before)
	}
	if !r.s.settled || r.s.wakeAt <= r.s.now {
		t.Fatalf("loop not settled after AdvanceTo: settled %v, wakeAt %g, now %g", r.s.settled, r.s.wakeAt, r.s.now)
	}
	wakeAt := r.s.wakeAt
	for _, ts := range []float64{before.Now, before.Now - 100, (before.Now + wakeAt) / 2, wakeAt} {
		if err := r.AdvanceTo(ts); err != nil {
			t.Fatal(err)
		}
		if got := read(); !reflect.DeepEqual(got, before) {
			t.Fatalf("AdvanceTo(%g) before wakeAt %g changed the probes:\nbefore %+v\nafter  %+v", ts, wakeAt, before, got)
		}
		if !r.s.settled || r.s.wakeAt != wakeAt {
			t.Fatalf("AdvanceTo(%g) moved the settled point: settled %v, wakeAt %g (was %g)", ts, r.s.settled, r.s.wakeAt, wakeAt)
		}
	}
	// Passing wakeAt steps again: the next event fires.
	if err := r.AdvanceTo(math.Nextafter(wakeAt, math.Inf(1))); err != nil {
		t.Fatal(err)
	}
	if r.Now() != wakeAt {
		t.Fatalf("advancing past wakeAt %g left the clock at %g", wakeAt, r.Now())
	}
	if _, _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}
