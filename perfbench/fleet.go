package main

import (
	"fmt"

	"serpentine/internal/fault"
	"serpentine/internal/fleet"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// The fleet workload's store: 8 shards of 2 drives over 16 cartridges
// of 128 one-megabyte objects, every object on 2 cartridges. Each
// shard holds 256 MB of objects behind a 64 MB staging cache, so the
// working set does not fit and eviction runs.
const (
	fleetShards     = 8
	fleetDrives     = 2
	fleetTapes      = 16
	fleetObjects    = 128
	fleetSegments   = 32
	fleetReplicas   = 2
	fleetBatchLimit = 16
	fleetLocality   = 0.3
	fleetCacheBytes = 32 << 20
)

// fleetRates is the fleet's fixed Poisson rate ladder (requests per
// virtual hour, cluster-wide), fleetNominal the rung whose latency is
// reported, fleetRequests the stream length per rung.
var (
	fleetRates    = []float64{300, 500, 1200, 1800}
	fleetNominal  = 0
	fleetRequests = []int{40000, 20000, 20000, 20000}
)

// fleetLifecycle sets component faults that fail well under 1% of the
// requests but still force batch rescues and cross-shard replica
// reads. Each rung reseeds it.
var fleetLifecycle = fault.LifecycleConfig{
	DriveMTTFSec:      48 * 3600,
	DriveMTTRSec:      600,
	CartridgeLossRate: 0.02,
}

// fleetObjectives are the SLO engine's objectives for the event replay.
var fleetObjectives = []obs.Objective{
	{Name: "availability", Target: 0.995},
	{Name: "latency", Target: 0.95, LatencySec: latencyLimitSec},
}

// fleetWorkload is the sharded fleet with affinity routing, staging
// caches, lifecycle faults, an armed event ring and health tracker, and
// the event log replayed into an SLO engine.
type fleetWorkload struct {
	seed    int64
	f       *fleet.Fleet
	streams [][]tertiary.Request
}

func newFleetWorkload(seed int64) *fleetWorkload { return &fleetWorkload{seed: seed} }

func (w *fleetWorkload) setup() error {
	f, err := fleet.New(fleet.StoreConfig{
		Shards: fleetShards, TapeCount: fleetTapes, Objects: fleetObjects,
		ObjectSegments: fleetSegments, Replicas: fleetReplicas,
	})
	if err != nil {
		return err
	}
	w.f = f
	if w.streams == nil {
		for ri, rate := range fleetRates {
			s, err := fleet.Stream(rate, fleetRequests[ri], rungSeed(w.seed, ri), fleetTapes, fleetObjects, fleetLocality)
			if err != nil {
				return err
			}
			w.streams = append(w.streams, s)
		}
	}
	return nil
}

// runConfig is rung ri's serving configuration; router, events and
// health are the parts the traced run and the layer deltas vary.
func (w *fleetWorkload) runConfig(ri int, router fleet.Router, events *obs.EventRing, health *obs.HealthTracker) fleet.RunConfig {
	lc := fleetLifecycle
	lc.Seed = int64(ri)*8191 + 5
	return fleet.RunConfig{
		Drives:     fleetDrives,
		BatchLimit: fleetBatchLimit,
		Lifecycle:  lc,
		Cache:      hsm.Config{CapacityBytes: fleetCacheBytes, Prefetch: true},
		Router:     router,
		Seed:       rungSeed(w.seed, ri),
		Events:     events,
		Health:     health,
	}
}

func (w *fleetWorkload) pass(tr *tracer) (passOut, error) {
	var out passOut
	var router fleet.Router = fleet.Affinity{}
	if tr != nil {
		router = tracedRouter{inner: router, tr: tr}
	}
	dg := newDigest()
	var rungs []rung
	var offered, served, tapeServed, mounts, retries, replans, events, alerts int
	var busySec float64
	for ri, stream := range w.streams {
		ring := obs.NewEventRing(len(stream))
		cfg := w.runConfig(ri, router, ring, obs.NewHealthTracker())
		tr.begin(kFleetRun, int64(ri))
		res, m, err := w.f.Run(cfg, stream)
		tr.end()
		if err != nil {
			return out, fmt.Errorf("rung %g/h: %w", fleetRates[ri], err)
		}
		if err := checkFleetRun(len(stream), res, m, ring); err != nil {
			return out, fmt.Errorf("check: rung %g/h: %w", fleetRates[ri], err)
		}
		evs := ring.Events()
		tr.begin(kObsSLO, int64(ri))
		engine, err := obs.NewSLOEngine(obs.SLOConfig{Objectives: fleetObjectives})
		if err != nil {
			return out, err
		}
		for _, ev := range evs {
			engine.ObserveEvent(ev)
		}
		tr.end()
		if tr != nil {
			tr.sloEvents += int64(len(evs))
		}
		alerts += len(engine.Alerts())
		events += len(evs)

		r := rung{ratePerHour: fleetRates[ri]}
		for _, q := range stream {
			r.arrivals = append(r.arrivals, q.Arrival)
		}
		for _, ev := range evs {
			r.finished = append(r.finished, ev.DoneSec)
		}
		var nominal tertiary.Metrics
		var comps []tertiary.Completion
		for _, sr := range res {
			for _, c := range sr.Completions {
				r.sojourns = append(r.sojourns, c.Latency())
				dg.str(c.ObjectID)
				dg.float(c.Done)
				dg.int(int64(c.DriveID))
			}
			digestMetrics(dg, sr.Metrics)
			tapeServed += sr.Metrics.Served
			busySec += sr.Metrics.DriveBusySec
			mounts += sr.Metrics.Mounts
			retries += sr.Metrics.Retries
			replans += sr.Metrics.Replans
			if ri == fleetNominal {
				nominal = sumMetrics(nominal, sr.Metrics)
				comps = append(comps, sr.Completions...)
			}
		}
		dg.int(int64(len(engine.Alerts())))
		rungs = append(rungs, r)
		offered += len(stream)
		served += m.Served
		if ri == fleetNominal {
			out.layer = tertiaryLayer(nominal, comps, fleetShards*fleetDrives)
			for k, v := range fleetLayer(res, m) {
				out.layer[k] = v
			}
			out.notes = append(out.notes, fmt.Sprintf("nominal rung: served %d, failed %d, rejected %d, shed %d, cache hits %d, cross-shard %d, mounts %d, lost cartridges %d, drive failures %d, rescued %d, alerts %d",
				m.Served, m.Failed, m.Rejected, m.Shed, m.CacheHits, m.CrossShardReads, nominal.Mounts, nominal.LostCartridges, nominal.DriveFailures, nominal.Rescued, len(engine.Alerts())))
		}
	}
	slack := fleetShards * fleetDrives * fleetBatchLimit
	soj, note := sojournMetrics(rungs[fleetNominal])
	out.requests = offered
	out.digest = dg.sum()
	out.e2e = map[string]metric{
		"served_frac":      {float64(served) / float64(offered), "frac"},
		"retrievals_per_h": {float64(tapeServed) / busySec * 3600, "1/h"},
		"max_rate_per_h":   {maxRate(rungs, slack), "1/h"},
	}
	for k, v := range soj {
		out.e2e[k] = v
	}
	out.layer["sim.retries"] = metric{float64(retries), "count"}
	out.layer["sim.replans"] = metric{float64(replans), "count"}
	out.layer["drive.constructions"] = metric{float64(mounts), "count"}
	out.layer["obs.events"] = metric{float64(events), "count"}
	out.layer["obs.alerts"] = metric{float64(alerts), "count"}
	out.notes = append(out.notes, note, ladderNotes(rungs, slack))
	return out, nil
}

// checkFleetRun checks outcome conservation for the fleet and for
// every shard, latency attribution, and one wide event per request.
func checkFleetRun(offered int, res []fleet.ShardResult, m fleet.Metrics, ring *obs.EventRing) error {
	if m.Offered != offered {
		return fmt.Errorf("fleet offered %d, stream %d", m.Offered, offered)
	}
	if got := m.Served + m.Failed + m.Rejected + m.Shed; got != offered {
		return fmt.Errorf("fleet served %d + failed %d + rejected %d + shed %d = %d, offered %d",
			m.Served, m.Failed, m.Rejected, m.Shed, got, offered)
	}
	routed := 0
	for s, sr := range res {
		sm := sr.Metrics
		if got := sm.Served + sr.CacheHits + sm.Failed + sm.Rejected + sm.Shed; got != sr.Routed {
			return fmt.Errorf("shard %d: served %d + hits %d + failed %d + rejected %d + shed %d = %d, routed %d",
				s, sm.Served, sr.CacheHits, sm.Failed, sm.Rejected, sm.Shed, got, sr.Routed)
		}
		routed += sr.Routed
		if err := checkAttribution(sr.Completions); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	if routed != offered {
		return fmt.Errorf("shards routed %d, offered %d", routed, offered)
	}
	if n := ring.Total(); n != int64(offered) {
		return fmt.Errorf("%d wide events, offered %d", n, offered)
	}
	return nil
}

// sumMetrics adds the shard counters the layer metrics read.
func sumMetrics(a, b tertiary.Metrics) tertiary.Metrics {
	a.Served += b.Served
	a.Failed += b.Failed
	a.Rescued += b.Rescued
	a.Mounts += b.Mounts
	a.LostCartridges += b.LostCartridges
	a.DriveFailures += b.DriveFailures
	a.RobotWaitSec += b.RobotWaitSec
	a.DriveBusySec += b.DriveBusySec
	if b.MaxQueueDepth > a.MaxQueueDepth {
		a.MaxQueueDepth = b.MaxQueueDepth
	}
	if b.Makespan > a.Makespan {
		a.Makespan = b.Makespan
	}
	return a
}

// fleetLayer reads the routing and cache figures off one fleet run.
func fleetLayer(res []fleet.ShardResult, m fleet.Metrics) map[string]metric {
	maxRouted := 0
	for _, sr := range res {
		if sr.Routed > maxRouted {
			maxRouted = sr.Routed
		}
	}
	lookups := m.CacheHits + m.CacheMisses
	hit := 0.0
	if lookups > 0 {
		hit = float64(m.CacheHits) / float64(lookups)
	}
	n := float64(m.Offered)
	return map[string]metric{
		"hsm.hit_frac":           {hit, "frac"},
		"fleet.affinity_frac":    {float64(m.AffinityHits) / n, "frac"},
		"fleet.cross_shard_frac": {float64(m.CrossShardReads) / n, "frac"},
		"fleet.unroutable":       {float64(m.Unroutable), "count"},
		"fleet.shard_skew":       {float64(maxRouted) / (n / float64(len(res))), "ratio"},
	}
}

// deltaReps is how many times each side of a layer delta runs.
const deltaReps = 4

// libOut and fleetOut are the simulated outputs a layer delta compares.
type libOut struct {
	Comps   []tertiary.Completion
	Metrics tertiary.Metrics
}

type fleetOut struct {
	Shards  []fleet.ShardResult
	Metrics fleet.Metrics
}

func (w *fleetWorkload) extras(ref passOut, passNs float64) (map[string]metric, error) {
	tapes, err := generateTapes(fleetTapes)
	if err != nil {
		return nil, err
	}
	out := driveLayer(tapes, ref, passNs)

	// The staging tier and the routing tier, each in its
	// identical-output configuration, over the library workload's
	// nominal stream: a size-0 tier and a 1-shard pass-through fleet
	// against the bare Library.Run.
	lw := newLibrary(w.seed)
	if err := lw.setup(); err != nil {
		return nil, err
	}
	stream := lw.streams[libraryNominal]
	bareLib := func() (any, error) {
		comps, m, err := lw.clone(nil).Run(stream)
		return libOut{comps, m}, err
	}
	zeroTier := func() (any, error) {
		tier, err := hsm.NewTier(lw.clone(nil), hsm.Config{})
		if err != nil {
			return nil, err
		}
		comps, tm, err := tier.Run(stream)
		return libOut{comps, tm.Lib}, err
	}
	one, err := fleet.New(fleet.StoreConfig{Shards: 1, TapeCount: libTapes, Objects: libObjects, ObjectSegments: libSegments})
	if err != nil {
		return nil, err
	}
	oneShard := func() (any, error) {
		res, _, err := one.Run(fleet.RunConfig{Drives: libDrives, BatchLimit: libBatchLimit, Router: fleet.PassThrough{}}, stream)
		if err != nil {
			return nil, err
		}
		return libOut{res[0].Completions, res[0].Metrics}, nil
	}
	hsmNs, err := pairedDelta(2*deltaReps, len(stream), bareLib, zeroTier)
	if err != nil {
		return nil, fmt.Errorf("size-0 tier vs library: %w", err)
	}
	fleetNs, err := pairedDelta(2*deltaReps, len(stream), bareLib, oneShard)
	if err != nil {
		return nil, fmt.Errorf("1-shard fleet vs library: %w", err)
	}

	// Event emission and the health feed on the fleet's nominal rung:
	// nil vs armed ring, then ring alone vs ring plus health tracker.
	ri := fleetNominal
	fs := w.streams[ri]
	fleetRun := func(ring bool, health bool) func() (any, error) {
		return func() (any, error) {
			var r *obs.EventRing
			var h *obs.HealthTracker
			if ring {
				r = obs.NewEventRing(len(fs))
			}
			if health {
				h = obs.NewHealthTracker()
			}
			res, m, err := w.f.Run(w.runConfig(ri, fleet.Affinity{}, r, h), fs)
			return fleetOut{res, m}, err
		}
	}
	emitNs, err := pairedDelta(deltaReps, len(fs), fleetRun(false, false), fleetRun(true, false))
	if err != nil {
		return nil, fmt.Errorf("nil vs armed event ring: %w", err)
	}
	healthNs, err := pairedDelta(deltaReps, len(fs), fleetRun(true, false), fleetRun(true, true))
	if err != nil {
		return nil, fmt.Errorf("ring vs ring plus health tracker: %w", err)
	}
	out["hsm.passthrough_ns_per_req"] = metric{hsmNs, "ns"}
	out["fleet.passthrough_ns_per_req"] = metric{fleetNs, "ns"}
	out["obs.emit_ns_per_req"] = metric{emitNs, "ns"}
	out["obs.health_ns_per_req"] = metric{healthNs, "ns"}
	return out, nil
}
