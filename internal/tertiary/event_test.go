package tertiary

import (
	"math"
	"reflect"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/obs"
)

// eventCfg is a faulted, capped, deadlined configuration that drives
// every terminal outcome: cartridge loss fails requests, the queue cap
// rejects, the deadline sheds, and the rest serve.
func eventCfg(t *testing.T, drives int) (Config, *Catalog) {
	t.Helper()
	cfg := smallCfg(drives)
	cfg.QueueCap = 6
	cfg.DeadlineSec = 150
	cfg.Lifecycle = fault.LifecycleConfig{
		CartridgeLossRate: 0.1,
		Seed:              3,
	}
	return cfg, smallCatalog(t, cfg, 4)
}

// TestWideEventsTimingNeutral pins the nil-handle promise: arming the
// event ring must not change a single completion or metric — events
// are pure accounting, never actors in the simulation. Arming the
// registry and a trace on top changes neither the run nor its events.
func TestWideEventsTimingNeutral(t *testing.T) {
	run := func(ring *obs.EventRing, reg *obs.Registry, trace *obs.TraceHandle) ([]Completion, Metrics) {
		cfg, cat := eventCfg(t, 1)
		cfg.Events = ring
		cfg.Reg = reg
		cfg.SpanTrace = trace
		lib, err := New(cfg, cat)
		if err != nil {
			t.Fatal(err)
		}
		done, m, err := lib.Run(lifecycleStream(100, 30))
		if err != nil {
			t.Fatal(err)
		}
		return done, m
	}
	d0, m0 := run(nil, nil, nil)
	ring := obs.NewEventRing(256)
	d1, m1 := run(ring, nil, nil)
	if !reflect.DeepEqual(m0, m1) {
		t.Fatalf("arming events changed metrics:\n%+v\n%+v", m0, m1)
	}
	if !reflect.DeepEqual(d0, d1) {
		t.Fatal("arming events changed completions")
	}
	if ring.Total() == 0 {
		t.Fatal("armed ring recorded nothing")
	}
	full := obs.NewEventRing(256)
	reg, tracer := obs.NewRegistry(), obs.NewTracer(1<<14)
	d2, m2 := run(full, reg, tracer.StartTrace())
	if !reflect.DeepEqual(m0, m2) {
		t.Fatalf("arming the registry and a trace changed metrics:\n%+v\n%+v", m0, m2)
	}
	if !reflect.DeepEqual(d0, d2) {
		t.Fatal("arming the registry and a trace changed completions")
	}
	if !reflect.DeepEqual(ring.Events(), full.Events()) {
		t.Fatal("arming the registry and a trace changed the wide events")
	}
	if reg.Counter("served_total").Value() != int64(m2.Served) || tracer.Total() == 0 {
		t.Fatal("armed registry or trace recorded nothing")
	}
}

// TestWideEventConservation checks that every offered request emits
// exactly one terminal event and the per-outcome counts reconcile with
// the metrics partition.
func TestWideEventConservation(t *testing.T) {
	cfg, cat := eventCfg(t, 1)
	ring := obs.NewEventRing(1024)
	cfg.Events = ring
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	reqs := lifecycleStream(150, 12) // fast enough to trip the cap and deadline
	_, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Total() != int64(len(reqs)) {
		t.Fatalf("%d events for %d offered requests", ring.Total(), len(reqs))
	}
	counts := map[string]int{}
	for _, ev := range ring.Events() {
		counts[ev.Outcome]++
	}
	want := map[string]int{
		obs.OutcomeServed:   m.Served,
		obs.OutcomeFailed:   m.Failed,
		obs.OutcomeRejected: m.Rejected,
		obs.OutcomeShed:     m.Shed,
	}
	for k, v := range want {
		if v == 0 {
			delete(want, k)
		}
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("event outcome counts %v != metrics partition %v", counts, want)
	}
	// The workload must actually exercise every outcome for this test
	// to mean anything.
	if len(counts) != 4 {
		t.Fatalf("workload produced only outcomes %v — tighten the config", counts)
	}
}

// TestWideEventAttribution checks the telescoping invariant on every
// event, served or not: the attribution components sum to the sojourn
// within 1e-9, and a served event matches its completion's vector.
func TestWideEventAttribution(t *testing.T) {
	cfg, cat := eventCfg(t, 2)
	ring := obs.NewEventRing(1024)
	cfg.Events = ring
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, _, err := lib.Run(lifecycleStream(150, 12))
	if err != nil {
		t.Fatal(err)
	}
	byArrival := map[float64]Completion{}
	for _, c := range done {
		byArrival[c.Arrival] = c
	}
	for _, ev := range ring.Events() {
		if e := math.Abs(ev.SojournSec() - ev.AttributionSum()); e > 1e-9 {
			t.Fatalf("%s %s@%.3f attribution off by %g (sojourn %.9f, sum %.9f)",
				ev.Outcome, ev.Object, ev.ArrivalSec, e, ev.SojournSec(), ev.AttributionSum())
		}
		if ev.DoneSec < ev.ArrivalSec {
			t.Fatalf("%s %s terminal at %.3f before arrival %.3f", ev.Outcome, ev.Object, ev.DoneSec, ev.ArrivalSec)
		}
		if ev.Outcome != obs.OutcomeServed {
			continue
		}
		c, ok := byArrival[ev.ArrivalSec]
		if !ok || c.ObjectID != ev.Object {
			t.Fatalf("served event %s@%.3f has no matching completion", ev.Object, ev.ArrivalSec)
		}
		if ev.QueueSec != c.Attribution.QueueSec || ev.TransferSec != c.Attribution.TransferSec ||
			ev.RescueSec != c.Attribution.RescueSec || ev.RetrySec != c.Attribution.RetrySec {
			t.Fatalf("served event %s@%.3f attribution diverges from its completion", ev.Object, ev.ArrivalSec)
		}
		if ev.DoneSec != c.Done {
			t.Fatalf("served event done %.6f != completion done %.6f", ev.DoneSec, c.Done)
		}
	}
}

// TestWideEventOutcomeShape spot-checks the non-served event fields:
// rejected and shed events carry no drive, book their whole wait as
// queue time, and stamp the configured shard.
func TestWideEventOutcomeShape(t *testing.T) {
	cfg, cat := eventCfg(t, 1)
	ring := obs.NewEventRing(1024)
	cfg.Events = ring
	cfg.Shard = 3
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.Run(lifecycleStream(150, 12)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range ring.Events() {
		if ev.Shard != 3 {
			t.Fatalf("event stamped shard %d, want 3", ev.Shard)
		}
		switch ev.Outcome {
		case obs.OutcomeRejected:
			if ev.Drive != obs.EventNoDrive {
				t.Fatalf("rejected event carries drive %d", ev.Drive)
			}
			if ev.DoneSec != ev.ArrivalSec {
				t.Fatalf("rejection at %.3f not instantaneous (arrival %.3f)", ev.DoneSec, ev.ArrivalSec)
			}
		case obs.OutcomeShed:
			if ev.Drive != obs.EventNoDrive {
				t.Fatalf("shed event carries drive %d", ev.Drive)
			}
			if ev.QueueSec+ev.RescueSec == 0 && ev.DoneSec != ev.ArrivalSec {
				t.Fatalf("shed event books no wait for a %.3fs sojourn", ev.SojournSec())
			}
		case obs.OutcomeServed:
			if ev.Drive < 0 {
				t.Fatalf("served event carries drive %d", ev.Drive)
			}
		}
	}
}

// TestWideEventDeterminism pins the event log as a pure function of
// the run.
func TestWideEventDeterminism(t *testing.T) {
	run := func() []obs.Event {
		cfg, cat := eventCfg(t, 2)
		ring := obs.NewEventRing(1024)
		cfg.Events = ring
		lib, err := New(cfg, cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := lib.Run(lifecycleStream(120, 20)); err != nil {
			t.Fatal(err)
		}
		return ring.Events()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical runs produced different event logs")
	}
}
