package fleet

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
)

// eventsSweepCfg is a small faulted, cached fleet sweep that drives
// the event plane through its full surface.
func eventsSweepCfg(workers int, eventCap int) SweepConfig {
	return SweepConfig{
		TapeCount:    8,
		Objects:      32,
		Replicas:     2,
		RatesPerHour: []float64{240},
		ShardCounts:  []int{2},
		Routers:      []Router{Affinity{}},
		Drives:       1,
		BatchLimit:   4,
		Requests:     120,
		Lifecycle:    fault.LifecycleConfig{CartridgeLossRate: 0.05},
		Cache:        hsm.Config{CapacityBytes: 64 << 20},
		Seed:         1,
		Workers:      workers,
		EventCap:     eventCap,
	}
}

// TestFleetEventsTimingNeutral pins that arming the event ring and the
// health tracker changes nothing the simulation computes: per-shard
// completions and metrics stay deeply equal, because events are pure
// accounting and the tracker is filled only after the run.
func TestFleetEventsTimingNeutral(t *testing.T) {
	fl, err := New(StoreConfig{Shards: 2, TapeCount: 8, Objects: 32, ObjectSegments: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 100, 7, 8, 32, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ring *obs.EventRing, health *obs.HealthTracker) ([]ShardResult, Metrics) {
		res, m, err := fl.Run(RunConfig{
			Drives:     1,
			BatchLimit: 4,
			Lifecycle:  fault.LifecycleConfig{CartridgeLossRate: 0.05, Seed: 5},
			Cache:      hsm.Config{CapacityBytes: 64 << 20},
			Router:     Affinity{},
			Seed:       3,
			Events:     ring,
			Health:     health,
		}, stream)
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	r0, m0 := run(nil, nil)
	ring := obs.NewEventRing(len(stream))
	health := obs.NewHealthTracker()
	r1, m1 := run(ring, health)
	if !reflect.DeepEqual(m0, m1) {
		t.Fatalf("arming events+health changed fleet metrics:\n%+v\n%+v", m0, m1)
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Fatal("arming events+health changed shard results")
	}
	if ring.Total() != int64(len(stream)) {
		t.Fatalf("%d events for %d requests", ring.Total(), len(stream))
	}
	if len(health.Keys()) == 0 {
		t.Fatal("health tracker scored no keys")
	}
}

// TestFleetEventFold checks the merged log: one event per request in
// nondecreasing terminal-time order, every event stamped with its
// shard and a route, counts reconciling with the fleet partition, and
// attribution telescoping on every event.
func TestFleetEventFold(t *testing.T) {
	fl, err := New(StoreConfig{Shards: 2, TapeCount: 8, Objects: 32, ObjectSegments: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 120, 7, 8, 32, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(len(stream))
	res, m, err := fl.Run(RunConfig{
		Drives:     1,
		BatchLimit: 4,
		QueueCap:   8,
		Lifecycle:  fault.LifecycleConfig{CartridgeLossRate: 0.05, Seed: 5},
		Cache:      hsm.Config{CapacityBytes: 64 << 20},
		Router:     Affinity{},
		Seed:       3,
		Events:     ring,
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if len(events) != len(stream) {
		t.Fatalf("%d events for %d requests", len(events), len(stream))
	}
	counts := map[string]int{}
	perShard := map[int]int{}
	cacheHits := 0
	for i, ev := range events {
		counts[ev.Outcome]++
		perShard[ev.Shard]++
		if ev.Cache {
			cacheHits++
		}
		if ev.Route == "" {
			t.Fatalf("fleet event %d carries no route", i)
		}
		if ev.Shard < 0 || ev.Shard >= fl.Shards() {
			t.Fatalf("event %d stamped shard %d of %d", i, ev.Shard, fl.Shards())
		}
		if i > 0 && events[i].DoneSec < events[i-1].DoneSec {
			t.Fatalf("fold out of order: event %d at %.3f after %.3f", i, events[i].DoneSec, events[i-1].DoneSec)
		}
		if e := math.Abs(ev.SojournSec() - ev.AttributionSum()); e > 1e-9 {
			t.Fatalf("event %d (%s %s) attribution off by %g", i, ev.Outcome, ev.Object, e)
		}
	}
	if counts[obs.OutcomeServed] != m.Served || counts[obs.OutcomeFailed] != m.Failed ||
		counts[obs.OutcomeRejected] != m.Rejected || counts[obs.OutcomeShed] != m.Shed {
		t.Fatalf("event counts %v != fleet partition served %d failed %d rejected %d shed %d",
			counts, m.Served, m.Failed, m.Rejected, m.Shed)
	}
	if cacheHits != m.CacheHits {
		t.Fatalf("%d cache-hit events, metrics say %d", cacheHits, m.CacheHits)
	}
	for s, sr := range res {
		if perShard[s] != sr.Routed {
			t.Fatalf("shard %d has %d events for %d routed requests", s, perShard[s], sr.Routed)
		}
	}
}

// TestFleetEventsSweepDeterministic pins the satellite promise: the
// sweep's per-cell event logs are byte-equal at any worker count, and
// every event carries the cell's coordinate labels.
func TestFleetEventsSweepDeterministic(t *testing.T) {
	run := func(workers int) [][]obs.Event {
		cells, err := Sweep(eventsSweepCfg(workers, 200))
		if err != nil {
			t.Fatal(err)
		}
		var out [][]obs.Event
		for _, c := range cells {
			out = append(out, c.Events)
		}
		return out
	}
	e1, e2 := run(1), run(2)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("sweep event logs differ between 1 and 2 workers")
	}
	if len(e1) == 0 || len(e1[0]) == 0 {
		t.Fatal("sweep produced no events")
	}
	for _, ev := range e1[0] {
		labels := map[string]string{}
		for _, l := range ev.Labels {
			labels[l.Key] = l.Value
		}
		if labels["rate"] != "240" || labels["shards"] != "2" || labels["router"] != "affinity" {
			t.Fatalf("event labels %v missing cell coordinates", ev.Labels)
		}
	}
}

// TestFleetEventSeqStampsSourceSlot checks the fold preserves per-
// shard sequence numbers: (Shard, Seq) in the merged log names the
// source shard's emission slot, dense from 1 per shard.
func TestFleetEventSeqStampsSourceSlot(t *testing.T) {
	fl, err := New(StoreConfig{Shards: 2, TapeCount: 8, Objects: 32, ObjectSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 60, 7, 8, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(len(stream))
	_, _, err = fl.Run(RunConfig{Drives: 1, BatchLimit: 4, Events: ring}, stream)
	if err != nil {
		t.Fatal(err)
	}
	next := map[int]int64{}
	seen := map[string]bool{}
	for _, ev := range ring.Events() {
		key := strconv.Itoa(ev.Shard) + "/" + strconv.FormatInt(ev.Seq, 10)
		if seen[key] {
			t.Fatalf("duplicate (shard, seq) %s in merged log", key)
		}
		seen[key] = true
		next[ev.Shard]++
	}
	for s, n := range next {
		for want := int64(1); want <= n; want++ {
			if !seen[strconv.Itoa(s)+"/"+strconv.FormatInt(want, 10)] {
				t.Fatalf("shard %d seq %d missing: per-shard seqs not dense", s, want)
			}
		}
	}
}

// TestSingleShardEventParity pins that a one-shard fleet's events are
// the standalone library's events with the fleet's route stamped on:
// same outcomes, same times, same attribution.
func TestSingleShardEventParity(t *testing.T) {
	fl, err := New(StoreConfig{Shards: 1, TapeCount: 4, Objects: 16, ObjectSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 60, 7, 4, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(len(stream))
	_, _, err = fl.Run(RunConfig{Drives: 1, BatchLimit: 4, Events: ring}, stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range ring.Events() {
		if ev.Shard != 0 {
			t.Fatalf("event %d on shard %d in a 1-shard fleet", i, ev.Shard)
		}
		if ev.Route != "routed" && ev.Route != "affinity" {
			t.Fatalf("event %d route %q, want routed/affinity (pass-through of the only shard)", i, ev.Route)
		}
	}
}
