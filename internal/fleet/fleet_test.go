package fleet

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// TestSingleShardFleetEquivalence pins the fleet's foundation: a
// one-shard fleet under the pass-through router reproduces
// tertiary.Sweep cells bit for bit. The grids are aligned — same
// store shape, same single-element inner axes so the per-cell seed
// derivations coincide — so any divergence is a real behavior change
// in the routing tier or the incremental run loop.
func TestSingleShardFleetEquivalence(t *testing.T) {
	const (
		tapeCount = 4
		objects   = 128
		requests  = 200
		seed      = 42
	)
	rates := []float64{60, 240}
	cases := []struct {
		name      string
		lifecycle fault.LifecycleConfig
	}{
		{"fault-free", fault.LifecycleConfig{}},
		{"lifecycle", fault.LifecycleConfig{
			DriveMTTFSec:      3600,
			DriveMTTRSec:      600,
			CartridgeLossRate: 0.02,
			RobotStallRate:    0.05,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tertiary.Sweep(tertiary.SweepConfig{
				TapeCount:    tapeCount,
				Objects:      objects,
				RatesPerHour: rates,
				DriveCounts:  []int{2},
				BatchLimits:  []int{8},
				Requests:     requests,
				Lifecycle:    tc.lifecycle,
				Seed:         seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Sweep(SweepConfig{
				TapeCount:    tapeCount,
				Objects:      objects,
				RatesPerHour: rates,
				ShardCounts:  []int{1},
				Routers:      []Router{PassThrough{}},
				Drives:       2,
				BatchLimit:   8,
				Requests:     requests,
				Lifecycle:    tc.lifecycle,
				Seed:         seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("cell counts: fleet %d, tertiary %d", len(got), len(want))
			}
			for i := range got {
				if got[i].RatePerHour != want[i].RatePerHour {
					t.Fatalf("cell %d rate %g vs %g", i, got[i].RatePerHour, want[i].RatePerHour)
				}
				if len(got[i].PerShard) != 1 {
					t.Fatalf("cell %d has %d shards", i, len(got[i].PerShard))
				}
				if got[i].PerShard[0] != want[i].Metrics {
					t.Errorf("cell %g/h diverges:\nfleet:    %+v\ntertiary: %+v",
						got[i].RatePerHour, got[i].PerShard[0], want[i].Metrics)
				}
				if got[i].Routed[0] != requests {
					t.Errorf("cell %g/h routed %d of %d to the only shard",
						got[i].RatePerHour, got[i].Routed[0], requests)
				}
			}
		})
	}
}

// TestFleetConservation checks the partition invariant across shard
// counts and routers: Served+Failed+Rejected+Shed summed over shards
// equals the offered stream, and each shard's partition equals what
// was routed to it.
func TestFleetConservation(t *testing.T) {
	cells, err := Sweep(SweepConfig{
		TapeCount:    8,
		Objects:      64,
		Replicas:     2,
		RatesPerHour: []float64{240},
		ShardCounts:  []int{1, 2, 4},
		Requests:     150,
		QueueCap:     8,
		DeadlineSec:  3000,
		Lifecycle: fault.LifecycleConfig{
			DriveMTTFSec:      2400,
			DriveMTTRSec:      900,
			CartridgeLossRate: 0.05,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		m := c.Metrics
		if got := m.Served + m.Failed + m.Rejected + m.Shed; got != m.Offered {
			t.Errorf("%d shards %s: served %d + failed %d + rejected %d + shed %d = %d, offered %d",
				c.Shards, c.Router, m.Served, m.Failed, m.Rejected, m.Shed, got, m.Offered)
		}
		routedSum := 0
		for s, sm := range c.PerShard {
			routedSum += c.Routed[s]
			if part := sm.Served + sm.Failed + sm.Rejected + sm.Shed; part != c.Routed[s] {
				t.Errorf("%d shards %s shard %d: partition %d != routed %d",
					c.Shards, c.Router, s, part, c.Routed[s])
			}
		}
		if routedSum != m.Offered {
			t.Errorf("%d shards %s: routed %d != offered %d", c.Shards, c.Router, routedSum, m.Offered)
		}
	}
}

// TestRoundRobinDeal pins the deal on a fully replicated store: with
// every object on every shard, round-robin's per-shard counts differ
// by at most one.
func TestRoundRobinDeal(t *testing.T) {
	f, err := New(StoreConfig{Shards: 4, TapeCount: 4, Objects: 32, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 101, 3, 4, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, m, err := f.Run(RunConfig{Drives: 1, BatchLimit: 8, Router: RoundRobin{}, Seed: 3}, stream)
	if err != nil {
		t.Fatal(err)
	}
	minR, maxR := res[0].Routed, res[0].Routed
	for _, r := range res[1:] {
		if r.Routed < minR {
			minR = r.Routed
		}
		if r.Routed > maxR {
			maxR = r.Routed
		}
	}
	if maxR-minR > 1 {
		t.Errorf("round-robin deal spread %d..%d over %d requests", minR, maxR, m.Offered)
	}
}

// TestAffinityBeatsLeastLoadedOnHits replays one high-locality stream
// under both routers: the affinity router must land at least as many
// requests on shards already holding the cartridge.
func TestAffinityBeatsLeastLoadedOnHits(t *testing.T) {
	f, err := New(StoreConfig{Shards: 2, TapeCount: 4, Objects: 32, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 200, 11, 4, 32, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	_, affinity, err := f.Run(RunConfig{Drives: 2, BatchLimit: 8, Router: Affinity{}, Seed: 11}, stream)
	if err != nil {
		t.Fatal(err)
	}
	_, least, err := f.Run(RunConfig{Drives: 2, BatchLimit: 8, Router: LeastLoaded{}, Seed: 11}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if affinity.AffinityHits < least.AffinityHits {
		t.Errorf("affinity router hit %d mounted shards, least-loaded %d",
			affinity.AffinityHits, least.AffinityHits)
	}
	if affinity.AffinityHits == 0 {
		t.Error("affinity router never hit a mounted cartridge on a 0.8-locality stream")
	}
}

// TestCrossShardReplicaReads arms cartridge loss on a replicated
// 2-shard fleet and checks that requests whose primary shard lost its
// copy are rerouted to the sister shard — and still conserved.
func TestCrossShardReplicaReads(t *testing.T) {
	f, err := New(StoreConfig{Shards: 2, TapeCount: 4, Objects: 32, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 300, 5, 4, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, m, err := f.Run(RunConfig{
		Drives:     2,
		BatchLimit: 8,
		Router:     LeastLoaded{},
		Seed:       5,
		Lifecycle:  fault.LifecycleConfig{CartridgeLossRate: 0.2, Seed: 5},
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, r := range res {
		lost += r.Metrics.LostCartridges
	}
	if lost == 0 {
		t.Skip("no cartridge was lost under this seed; cross-shard path not reachable")
	}
	if m.CrossShardReads == 0 {
		t.Errorf("%d cartridges lost but no cross-shard replica reads", lost)
	}
	if got := m.Served + m.Failed + m.Rejected + m.Shed; got != m.Offered {
		t.Errorf("partition %d != offered %d under cartridge loss", got, m.Offered)
	}
}

// TestFleetSpans checks the span nesting: one fleet root per run,
// every shard's run span a child of it, each on its own lane block.
func TestFleetSpans(t *testing.T) {
	const shards, drives = 2, 2
	f, err := New(StoreConfig{Shards: shards, TapeCount: 4, Objects: 32})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 50, 9, 4, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(1 << 14)
	if _, _, err := f.Run(RunConfig{Drives: drives, BatchLimit: 8, Router: RoundRobin{}, Seed: 9, Spans: tracer}, stream); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Spans()
	var rootID uint64
	for _, s := range spans {
		if s.Name == "fleet" {
			if rootID != 0 {
				t.Fatal("more than one fleet root span")
			}
			rootID = s.ID
			if s.Parent != 0 || s.Lane != 0 {
				t.Errorf("fleet root parent %d lane %d", s.Parent, s.Lane)
			}
		}
	}
	if rootID == 0 {
		t.Fatal("no fleet root span recorded")
	}
	lanes := map[int]bool{}
	runs := 0
	for _, s := range spans {
		if s.Name != "run" {
			continue
		}
		runs++
		if s.Parent != rootID {
			t.Errorf("shard run span parent %d, want fleet root %d", s.Parent, rootID)
		}
		if (s.Lane-1)%(1+drives) != 0 || lanes[s.Lane] {
			t.Errorf("shard run span on unexpected or reused lane %d", s.Lane)
		}
		lanes[s.Lane] = true
	}
	if runs != shards {
		t.Errorf("%d shard run spans, want %d", runs, shards)
	}
}

// TestFleetRegistryMerge checks the shard fold: per-shard series land
// under shard="N", and the fleet's routing counters account for every
// request.
func TestFleetRegistryMerge(t *testing.T) {
	const shards = 2
	f, err := New(StoreConfig{Shards: shards, TapeCount: 4, Objects: 32})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 80, 13, 4, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, m, err := f.Run(RunConfig{Drives: 1, BatchLimit: 8, Router: RoundRobin{}, Seed: 13, Reg: reg}, stream)
	if err != nil {
		t.Fatal(err)
	}
	var routed, served int64
	for s := 0; s < shards; s++ {
		label := obs.L("shard", strconv.Itoa(s))
		got := reg.Counter("fleet_routed_total", label).Value()
		if got != int64(res[s].Routed) {
			t.Errorf("shard %d fleet_routed_total = %d, want %d", s, got, res[s].Routed)
		}
		routed += got
		served += reg.Counter("served_total", label).Value()
	}
	if routed != int64(m.Offered) {
		t.Errorf("routed counters sum to %d, offered %d", routed, m.Offered)
	}
	if served != int64(m.Served) {
		t.Errorf("shard served_total counters sum to %d, fleet served %d", served, m.Served)
	}
	if got := reg.Counter("fleet_offered_total").Value(); got != int64(m.Offered) {
		t.Errorf("fleet_offered_total = %d, want %d", got, m.Offered)
	}
}

// TestFleetRejectsBadShapes pins the store validation.
func TestFleetRejectsBadShapes(t *testing.T) {
	if _, err := New(StoreConfig{Shards: 5, TapeCount: 4}); err == nil ||
		!strings.Contains(err.Error(), "shards") {
		t.Errorf("shards > tapes accepted: %v", err)
	}
	if _, err := New(StoreConfig{Shards: 2, TapeCount: 4, Replicas: 5}); err == nil ||
		!strings.Contains(err.Error(), "replication") {
		t.Errorf("replicas > tapes accepted: %v", err)
	}
	if _, err := Stream(240, 10, 1, 4, 32, 1.5); err == nil {
		t.Error("locality 1.5 accepted")
	}
}

// TestFleetRejectsNegativeSizes pins that a negative count is an
// error at every fleet entry point instead of silently becoming the
// default zero selects.
func TestFleetRejectsNegativeSizes(t *testing.T) {
	small := SweepConfig{
		TapeCount: 4, Objects: 16, RatesPerHour: []float64{240},
		ShardCounts: []int{1}, Routers: []Router{PassThrough{}}, Requests: 10,
	}
	fl, err := New(StoreConfig{TapeCount: 4, Objects: 16})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 10, 1, 4, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"StoreConfig.Shards", func() error { _, err := New(StoreConfig{Shards: -1}); return err }},
		{"StoreConfig.TapeCount", func() error { _, err := New(StoreConfig{TapeCount: -1}); return err }},
		{"StoreConfig.Objects", func() error { _, err := New(StoreConfig{Objects: -1}); return err }},
		{"StoreConfig.ObjectSegments", func() error { _, err := New(StoreConfig{ObjectSegments: -1}); return err }},
		{"StoreConfig.Replicas", func() error { _, err := New(StoreConfig{Replicas: -1}); return err }},
		{"RunConfig.Drives", func() error { _, _, err := fl.Run(RunConfig{Drives: -3}, stream); return err }},
		{"SweepConfig.Drives", func() error { c := small; c.Drives = -3; _, err := Sweep(c); return err }},
		{"SweepConfig.Requests", func() error { c := small; c.Requests = -1; _, err := Sweep(c); return err }},
		{"SweepConfig.TapeCount", func() error { c := small; c.TapeCount = -1; _, err := Sweep(c); return err }},
		{"SweepConfig.Objects", func() error { c := small; c.Objects = -1; _, err := Sweep(c); return err }},
		{"SweepConfig.Replicas", func() error { c := small; c.Replicas = -1; _, err := Sweep(c); return err }},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("negative %s: err %v, want a negative-count error", c.name, err)
		}
	}
}

// TestSweepWorkerCountInvariance pins satellite determinism: the
// entire sweep — cell metrics, per-shard routing assignments (which
// embed every tie-break decision, so equal-scoring shards resolve as
// a pure function of seed and request ordinal), and the merged
// registry dump — is identical at 1 and 8 workers. Least-loaded over
// a replicated store produces plenty of exact score ties (equal
// depth, equal headroom), which is where a scheduling-order leak
// would surface first.
func TestSweepWorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]Cell, string) {
		reg := obs.NewRegistry()
		cells, err := Sweep(SweepConfig{
			TapeCount:    8,
			Objects:      64,
			Replicas:     2,
			RatesPerHour: []float64{120, 480},
			ShardCounts:  []int{2, 4},
			Routers:      []Router{RoundRobin{}, LeastLoaded{}, Affinity{}},
			Requests:     150,
			Locality:     0.5,
			Lifecycle:    fault.LifecycleConfig{CartridgeLossRate: 0.05},
			Seed:         9,
			Workers:      workers,
			Reg:          reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var dump strings.Builder
		if err := reg.WriteProm(&dump); err != nil {
			t.Fatal(err)
		}
		return cells, dump.String()
	}
	cells1, dump1 := run(1)
	cells8, dump8 := run(8)
	if !reflect.DeepEqual(cells1, cells8) {
		t.Errorf("cells differ between 1 and 8 workers")
		for i := range cells1 {
			if !reflect.DeepEqual(cells1[i], cells8[i]) {
				t.Errorf("first divergence at cell %d (%g/h, %d shards, %s):\nw1: %+v\nw8: %+v",
					i, cells1[i].RatePerHour, cells1[i].Shards, cells1[i].Router, cells1[i], cells8[i])
				break
			}
		}
	}
	if dump1 != dump8 {
		t.Error("metrics dumps differ between 1 and 8 workers")
	}
}

// TestObjectIndex pins the directory lookup routing uses: every ID the
// store was built with resolves to its (tape, object) position,
// t·Objects + o, and any other string — malformed, non-canonical or out
// of range — is unknown.
func TestObjectIndex(t *testing.T) {
	fl, err := New(StoreConfig{Shards: 2, TapeCount: 12, Objects: 11, ObjectSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	for tape := 0; tape < 12; tape++ {
		for obj := 0; obj < 11; obj++ {
			id := tertiary.SweepObjectID(tape, obj)
			if i, ok := fl.index[id]; !ok || i != tape*11+obj {
				t.Fatalf("index[%q] = (%d, %v), want (%d, true)", id, i, ok, tape*11+obj)
			}
		}
	}
	for _, id := range []string{
		"", "t", "t1", "t1/", "t1/o", "t1/o2x", "x1/o2", "t1-o2", "t1/p2", "T1/o2",
		"t01/o2", "t1/o02", "t-1/o2", "t+1/o2", "t1/o-2", "t 1/o2", "t1/o 2",
		"t12/o0", "t0/o11", "t1/o1234567890", "t99999999999/o0", "t1/o2/o3",
	} {
		if i, ok := fl.index[id]; ok {
			t.Errorf("index[%q] = %d, want unknown", id, i)
		}
	}
}

// TestRouteAllocs pins that routing a request allocates nothing once
// the run's candidate and score buffers have grown: the directory
// lookup, the probes and the policy all work in place.
func TestRouteAllocs(t *testing.T) {
	fl, err := New(StoreConfig{Shards: 4, TapeCount: 8, Objects: 64, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 200, 3, 8, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rt := &routing{policy: Affinity{}, seed: 1}
	for s, base := range fl.bases {
		lib := base.Clone(tertiary.Config{
			Profile: fl.cfg.Profile, Tapes: fl.tapes[s], Drives: 2, Placement: fl.placements[s],
		})
		tier, err := hsm.NewTier(lib, hsm.Config{CapacityBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		rt.tiers = append(rt.tiers, tier)
		rt.runners = append(rt.runners, tier.Runner())
	}
	// Warm up: serve the stream's first half, so the buffers have
	// grown and the shards are mid-run, with cartridges mounted and
	// extents cached.
	half := len(stream) / 2
	for i, req := range stream[:half] {
		for _, tier := range rt.tiers {
			if err := tier.AdvanceTo(req.Arrival); err != nil {
				t.Fatal(err)
			}
		}
		d, err := fl.route(rt, i, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.tiers[d.shard].OfferRouted(req, d.slot, d.routeName()); err != nil {
			t.Fatal(err)
		}
	}
	i := half
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fl.route(rt, i, stream[i]); err != nil {
			t.Fatal(err)
		}
		if i++; i == len(stream) {
			i = half
		}
	})
	if allocs != 0 {
		t.Fatalf("route allocates %.1f times per request, want 0", allocs)
	}
}
