// Package fleet scales the tertiary library horizontally: a cluster
// of shard libraries behind a deterministic routing tier. Placement
// deals cartridges round-robin across shards at build time and spreads
// each object's replicas onto consecutive cartridges — and therefore
// across shards — so a shard that loses its copy of an object degrades
// reads to a sister shard instead of failing them. Routing policies
// are pluggable Routers scored per request over the shards holding a
// live copy, with probes (queue depth, mounted cartridges, brownout
// headroom) supplied by each shard's incremental run loop
// (tertiary.Runner).
//
// Everything is driven by one virtual clock and contains no
// randomness beyond the seeded workload and the seeded routing
// tie-break, so a fleet run — like a single-library run — is a pure
// function of its configuration. Sweep exploits that the same way
// tertiary.Sweep does: per-cell derived seeds make the output
// byte-identical at any worker count.
package fleet

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// StoreConfig describes the cluster-wide store the fleet is built
// over, laid out by tertiary.BuildStore as every sweep's store is:
// cartridge t (serial 3000+t) lives on shard t mod Shards, and copy k
// of object (t, o) on cartridge (t+k) mod TapeCount — every copy on a
// distinct cartridge, and with Replicas > 1 usually on a distinct
// shard. A zero count selects its default; a negative one is an error.
type StoreConfig struct {
	// Profile is the drive/cartridge format; zero value selects the
	// DLT4000.
	Profile geometry.Params
	// Shards is the library count; 0 selects 1. Must not exceed
	// TapeCount (every shard owns at least one cartridge).
	Shards int
	// TapeCount and Objects shape the store: cartridges across the
	// whole fleet and objects per cartridge; 0 select 8 and 256.
	// ObjectSegments is the extent length per object; 0 selects 32.
	TapeCount      int
	Objects        int
	ObjectSegments int
	// Replicas is the copy count per object; 0 and 1 mean no
	// replication. Must not exceed TapeCount, and every cartridge's
	// stride must fit Replicas copies.
	Replicas int
}

// copyGroup is one shard's copies of an object: the shard index, the
// object's cache slot there (its index in the shard library's
// Objects(), which the staging tier indexes residency by), and the
// indexes of the cartridges holding the copies in the shard library
// (Library.Cartridge), in copy order, which the runner's cartridge
// probes take. The first group of an object's directory entry is the
// shard holding copy 0 — the primary shard.
type copyGroup struct {
	shard int
	slot  int
	carts []int
}

// Fleet is a built cluster: per-shard base libraries sharing their
// read-only stores and same-shard replica placements, and the routing
// directory mapping every object to the shards holding its copies and
// its cache slot on each. Routing looks a request's ID up once, in
// index (keyed by the IDs New wrote); the shard and slot it picks carry
// the request through the shard's staging tier to its runner, which
// reads the object at that slot instead of hashing the ID again. A Fleet is
// immutable after New; Run clones per-shard libraries for each run, so
// one Fleet serves concurrent runs (the sweep's cells).
type Fleet struct {
	bases []*tertiary.Library
	index map[string]int // object ID -> position in dir
	dir   [][]copyGroup
}

// New builds the fleet store — tertiary.BuildStore lays the cartridges,
// catalogs and same-shard replica placements out — and indexes every
// object's copies for the routing tier.
func New(cfg StoreConfig) (*Fleet, error) {
	if cfg.Shards < 0 || cfg.TapeCount < 0 || cfg.Objects < 0 || cfg.ObjectSegments < 0 || cfg.Replicas < 0 {
		return nil, fmt.Errorf("fleet: negative shard, cartridge, object, segment or replica count (%d, %d, %d, %d, %d)",
			cfg.Shards, cfg.TapeCount, cfg.Objects, cfg.ObjectSegments, cfg.Replicas)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.TapeCount == 0 {
		cfg.TapeCount = 8
	}
	if cfg.Objects == 0 {
		cfg.Objects = 256
	}
	if cfg.ObjectSegments == 0 {
		cfg.ObjectSegments = 32
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	st, err := tertiary.BuildStore(cfg.Profile, cfg.Shards, cfg.TapeCount, cfg.Objects, cfg.ObjectSegments, cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := &Fleet{
		bases: st.Shards,
		index: make(map[string]int, cfg.TapeCount*cfg.Objects),
		dir:   make([][]copyGroup, 0, cfg.TapeCount*cfg.Objects),
	}
	for t := 0; t < cfg.TapeCount; t++ {
		for o := 0; o < cfg.Objects; o++ {
			// One group per shard holding a copy, in the order the
			// copies reach the shards, each listing its cartridges in
			// copy order.
			id := tertiary.SweepObjectID(t, o)
			var groups []copyGroup
			for _, c := range st.Copies(len(f.dir)) {
				gi := slices.IndexFunc(groups, func(g copyGroup) bool { return g.shard == c.Shard })
				if gi < 0 {
					gi = len(groups)
					groups = append(groups, copyGroup{shard: c.Shard, slot: f.bases[c.Shard].Slot(id)})
				}
				groups[gi].carts = append(groups[gi].carts, c.Cartridge)
			}
			f.index[id] = len(f.dir)
			f.dir = append(f.dir, groups)
		}
	}
	return f, nil
}

// Shards returns the cluster size.
func (f *Fleet) Shards() int { return len(f.bases) }

// RunConfig describes one fleet run: the per-shard serving
// configuration plus the routing tier's policy and seed. Schedulers
// are not pluggable here — every shard runs the paper's Auto policy
// (use tertiary.Sweep for the scheduler axis).
type RunConfig struct {
	// Drives is the transport count per shard; 0 selects 1, and it
	// must not be negative.
	Drives int
	// BatchLimit, QueueCap and DeadlineSec pass through to every
	// shard's Config.
	BatchLimit  int
	QueueCap    int
	DeadlineSec float64
	// Lifecycle arms component lifecycle faults on every shard; shard
	// s derives its seed as Lifecycle.Seed + 97·s so shards fail
	// independently but reproducibly.
	Lifecycle fault.LifecycleConfig
	// Cache puts an hsm staging tier in front of every shard: hits
	// complete at disk cost without consuming the shard's queue
	// capacity, misses fall through to the shard's tape path, and the
	// router sees residency via Candidate.Cached. The zero value (no
	// capacity) changes nothing: a run without a cache is bit-identical
	// to one before the field existed.
	Cache hsm.Config
	// Router picks a shard per request; nil selects LeastLoaded.
	Router Router
	// Seed drives the routing tie-break (see tieBreak); it does not
	// reseed the shards or the workload.
	Seed int64
	// Reg, when non-nil, receives every shard's metrics, recorded
	// under Labels plus shard="N" as the run goes, and the fleet's own
	// routing counters after the run completes.
	Reg *obs.Registry
	// Labels are added to the fleet-level series and passed to every
	// shard; the sweep passes the cell coordinates here.
	Labels []obs.Label
	// Spans, when non-nil, records the run as a fleet root span with
	// every shard's run span nested under it, each shard on its own
	// lane block (shard s starts at lane 1 + s·(1+Drives)).
	Spans *obs.Tracer
	// Events, when non-nil, receives one wide event per request after
	// the run: the fold merges the shards' terminal records in
	// (DoneSec, Shard, Seq) order and projects each entry onto its
	// event (stamped with shard, route and the attribution vector) with
	// Labels attached — the same spec-order folding the registries get,
	// so the merged log is identical at any worker count.
	Events *obs.EventRing
	// Health, when non-nil, is filled after the run in the same walk
	// over the shards' terminal records, in the same (DoneSec, Shard,
	// Seq) order, as the Events fold: every request scores its shard
	// (key "shard=N") and, when a drive was involved, its drive (key
	// "shard=N/drive=D"). Routing never reads it, so arming it changes
	// no decision.
	Health *obs.HealthTracker
}

// Metrics summarizes a fleet run across its shards.
type Metrics struct {
	// Offered is the request count; Served + Failed + Rejected + Shed
	// (summed over shards) partitions it — the conservation invariant
	// FuzzFleetRouting checks.
	Offered  int
	Served   int
	Failed   int
	Rejected int
	Shed     int
	// AffinityHits counts requests routed to a shard that already had
	// one of the object's cartridges in a drive at decision time.
	AffinityHits int
	// CrossShardReads counts requests routed off their primary shard
	// because every primary-shard copy was lost — the replica axis
	// paying off across the cluster.
	CrossShardReads int
	// Unroutable counts requests the routing tier could not place on
	// policy grounds: every copy lost, or every candidate shard scored
	// -Inf (zero headroom everywhere — the whole cluster's drives
	// down). Either way the request is still dispatched to the primary
	// shard so its accounting (a failure, a shed, or — after a repair —
	// a serve) keeps the partition exact.
	Unroutable int
	// CacheHits and CacheMisses count staging-cache lookups across the
	// fleet; both stay 0 when RunConfig.Cache is disabled. Hits are
	// included in Served.
	CacheHits   int
	CacheMisses int
	// Makespan is the latest shard makespan; MeanLatency the
	// served-weighted mean across shards; MaxLatency the cluster-wide
	// worst case.
	Makespan    float64
	MeanLatency float64
	MaxLatency  float64
}

// ShardResult is one shard's share of a fleet run.
type ShardResult struct {
	// Routed is how many requests the routing tier sent here.
	Routed int
	// Metrics and Completions are the shard's own run outcome,
	// bit-identical to what a standalone Library.Run over the same
	// request subsequence would produce. With a cache enabled,
	// Completions also holds the shard's cache hits (DriveID
	// hsm.CacheDriveID) merged in completion order, while Metrics stays
	// the tape path's view alone.
	Metrics     tertiary.Metrics
	Completions []tertiary.Completion
	// CacheHits and CacheMisses are this shard's staging-cache lookup
	// outcomes; both 0 when the fleet runs without a cache.
	CacheHits   int
	CacheMisses int
}

// decision is one routing outcome: the shard and the object's cache
// slot there.
type decision struct {
	shard      int
	slot       int
	affinity   bool
	cross      bool
	unroutable bool
}

// route is the decision's route for the request's wide event.
func (d decision) route() tertiary.Route {
	switch {
	case d.unroutable:
		return tertiary.RouteUnroutable
	case d.cross:
		return tertiary.RouteCrossShard
	case d.affinity:
		return tertiary.RouteAffinity
	}
	return tertiary.RouteRouted
}

// foldRecords merges the shards' terminal records, each sorted by
// (Done, Seq), k-way in (Done, Shard, Seq) order, a total order since
// (Shard, Seq) is unique: on equal Done (±0 alike) the lowest shard's
// head goes first. The one walk feeds both post-run consumers: dst,
// when non-nil, gets each entry's wide event, built in place in the
// ring's slot by event (keeping its per-shard Seq), with labels
// attached, and health, when non-nil, scores each entry under
// "shard=N" and, when a drive served or failed it, "shard=N/drive=D",
// in the terminal-time order it requires. Each key is resolved to its
// windows once, at its first observation. The run's events share one
// copy of labels.
func foldRecords(recs [][]tertiary.Terminal, event func(shard int, t *tertiary.Terminal, ev *obs.Event),
	dst *obs.EventRing, labels []obs.Label, health *obs.HealthTracker) {
	heads := make([]int, len(recs))
	keys := make([][]obs.HealthKey, len(recs)) // shard key, then drive d's at d+1
	if len(labels) > 0 {
		labels = slices.Clip(slices.Clone(labels))
	} else {
		labels = nil
	}
	var s int
	var t *tertiary.Terminal
	fill := func(ev *obs.Event) {
		event(s, t, ev)
		ev.Labels = labels
	}
	for {
		s = -1
		for k, rec := range recs {
			if heads[k] < len(rec) && (s < 0 || rec[heads[k]].Done < recs[s][heads[s]].Done) {
				s = k
			}
		}
		if s < 0 {
			return
		}
		t = &recs[s][heads[s]]
		heads[s]++
		dst.Fill(fill)
		if health == nil {
			continue
		}
		ks, good := keys[s], t.Outcome == tertiary.OutcomeServed
		if ks == nil {
			ks = []obs.HealthKey{health.Key(shardKey(s))}
		}
		ks[0].Observe(t.Done, good)
		if d := int(t.Drive) + 1; d > 0 {
			for len(ks) <= d {
				ks = append(ks, obs.HealthKey{})
			}
			if ks[d] == (obs.HealthKey{}) {
				ks[d] = health.Key(shardKey(s) + "/drive=" + strconv.Itoa(d-1))
			}
			ks[d].Observe(t.Done, good)
		}
		keys[s] = ks
	}
}

// shardKey is shard s's health key.
func shardKey(s int) string { return "shard=" + strconv.Itoa(s) }

// Run serves the stream through the routing tier: every shard's event
// loop advances in lockstep with the arrival clock, the router scores
// the shards holding a live copy of each request's object, and the
// request joins the winner's arrival stream. Requests must be sorted
// by arrival time. The run is fully deterministic: same fleet, config
// and stream — same result, bit for bit.
func (f *Fleet) Run(cfg RunConfig, stream []tertiary.Request) ([]ShardResult, Metrics, error) {
	router := cfg.Router
	if router == nil {
		router = LeastLoaded{}
	}
	drives := cfg.Drives
	if drives < 0 {
		return nil, Metrics{}, fmt.Errorf("fleet: negative drive count %d", drives)
	}
	if drives == 0 {
		drives = 1
	}
	for i, r := range stream {
		if math.IsNaN(r.Arrival) {
			return nil, Metrics{}, fmt.Errorf("fleet: request %d arrives at NaN", i)
		}
	}

	var trace *obs.TraceHandle
	var root *obs.SpanHandle
	if cfg.Spans != nil {
		trace = cfg.Spans.StartTrace()
		root = trace.Start("fleet", nil, 0).
			Attr("router", router.Name()).
			AttrInt("shards", len(f.bases)).
			AttrInt("drives", drives)
	}
	// Every shard library is wrapped in an hsm staging tier. With
	// cfg.Cache disabled the tier is a strict pass-through — no cache,
	// no extra metrics, every call delegated to the shard's Runner —
	// so the no-cache fleet path is bit-identical to the pre-cache one.
	tiers := make([]*hsm.Tier, len(f.bases))
	runners := make([]*tertiary.Runner, len(f.bases))
	for s := range runners {
		lc := cfg.Lifecycle
		if lc.Enabled() {
			lc.Seed += int64(s) * 97
		}
		lib := f.bases[s].Clone(tertiary.Config{
			Drives:      drives,
			BatchLimit:  cfg.BatchLimit,
			QueueCap:    cfg.QueueCap,
			Lifecycle:   lc,
			Placement:   f.bases[s].Config().Placement,
			DeadlineSec: cfg.DeadlineSec,
			Reg:         cfg.Reg,
			Labels:      shardLabels(cfg.Labels, s),
			SpanTrace:   trace,
			SpanParent:  root,
			Lane:        1 + s*(1+drives),
			Shard:       s,
		})
		tier, err := hsm.NewTier(lib, cfg.Cache)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", s, err)
		}
		tiers[s] = tier
		runners[s] = tier.Runner()
	}

	rt := &routing{policy: router, seed: cfg.Seed, runners: runners, tiers: tiers}
	res := make([]ShardResult, len(f.bases))
	m := Metrics{Offered: len(stream)}
	for i := 0; i < len(stream); {
		at := stream[i].Arrival
		for s := range tiers {
			if err := tiers[s].AdvanceTo(at); err != nil {
				return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", s, err)
			}
		}
		// Route every request carrying this timestamp before advancing
		// again: a shard's event loop must see all of an instant's
		// arrivals before it dispatches at that instant, exactly as a
		// monolithic Run would.
		for ; i < len(stream) && stream[i].Arrival == at; i++ {
			d, err := f.route(rt, i, stream[i])
			if err != nil {
				return nil, Metrics{}, err
			}
			if d.affinity {
				m.AffinityHits++
			}
			if d.cross {
				m.CrossShardReads++
			}
			if d.unroutable {
				m.Unroutable++
			}
			if err := tiers[d.shard].OfferRouted(stream[i], d.slot, d.route()); err != nil {
				return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", d.shard, err)
			}
			res[d.shard].Routed++
		}
	}

	var latSum float64
	for s := range tiers {
		comps, tm, err := tiers[s].Finish()
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("fleet: shard %d: %w", s, err)
		}
		sm := tm.Lib
		res[s].Metrics = sm
		res[s].Completions = comps
		res[s].CacheHits = tm.Hits
		res[s].CacheMisses = tm.Misses
		m.Served += tm.Served()
		m.Failed += sm.Failed
		m.Rejected += sm.Rejected
		m.Shed += sm.Shed
		m.CacheHits += tm.Hits
		m.CacheMisses += tm.Misses
		if tm.Makespan > m.Makespan {
			m.Makespan = tm.Makespan
		}
		if sm.MaxLatency > m.MaxLatency {
			m.MaxLatency = sm.MaxLatency
		}
		if tm.MaxHitSojourn > m.MaxLatency {
			m.MaxLatency = tm.MaxHitSojourn
		}
		// Hits contribute their (disk-cost) sojourns to the fleet mean;
		// with the cache disabled both terms past the tape path's are 0
		// and the sum is the pre-cache expression exactly.
		latSum += sm.MeanLatency*float64(sm.Served) + tm.HitSojournSec
	}
	if m.Served > 0 {
		m.MeanLatency = latSum / float64(m.Served)
	}
	if root != nil {
		root.AttrInt("served", m.Served)
		root.End(m.Makespan)
	}
	if cfg.Events != nil || cfg.Health != nil {
		// Like the registries' spec-order fold, the merged log and the
		// tracker state are identical at any worker count.
		recs := make([][]tertiary.Terminal, len(runners))
		for s, r := range runners {
			recs[s] = r.Terminals()
		}
		foldRecords(recs, func(s int, t *tertiary.Terminal, ev *obs.Event) { runners[s].Event(t, ev) },
			cfg.Events, cfg.Labels, cfg.Health)
	}
	cfg.Reg.Counter("fleet_offered_total", cfg.Labels...).Add(int64(m.Offered))
	cfg.Reg.Counter("fleet_affinity_hits_total", cfg.Labels...).Add(int64(m.AffinityHits))
	cfg.Reg.Counter("fleet_cross_shard_reads_total", cfg.Labels...).Add(int64(m.CrossShardReads))
	cfg.Reg.Counter("fleet_unroutable_total", cfg.Labels...).Add(int64(m.Unroutable))
	if cfg.Cache.Enabled() {
		cfg.Reg.Counter("fleet_cache_hits_total", cfg.Labels...).Add(int64(m.CacheHits))
		cfg.Reg.Counter("fleet_cache_misses_total", cfg.Labels...).Add(int64(m.CacheMisses))
	}
	for s := range res {
		cfg.Reg.Counter("fleet_routed_total", shardLabels(cfg.Labels, s)...).Add(int64(res[s].Routed))
	}
	return res, m, nil
}

// shardLabels returns a copy of labels with shard="s" appended: the
// labels shard s's series are recorded under.
func shardLabels(labels []obs.Label, s int) []obs.Label {
	return append(labels[:len(labels):len(labels)], obs.L("shard", strconv.Itoa(s)))
}

// routing is one run's routing tier: the policy, the probes it reads,
// and candidate and score buffers reused across requests.
type routing struct {
	policy  Router
	seed    int64
	runners []*tertiary.Runner
	tiers   []*hsm.Tier
	cands   []Candidate
	groups  []int // cands[i]'s index in the object's directory entry
	scores  []float64
}

// route scores the shards holding a live copy of the request's object
// and picks the best, breaking score ties by a pure function of
// (seed, request ordinal).
func (f *Fleet) route(rt *routing, ordinal int, req tertiary.Request) (decision, error) {
	oi, ok := f.index[req.ObjectID]
	if !ok {
		return decision{}, fmt.Errorf("fleet: request for unknown object %q", req.ObjectID)
	}
	groups := f.dir[oi]
	cands, gidx := rt.cands[:0], rt.groups[:0]
	primaryAlive := false
	for gi, g := range groups {
		r := rt.runners[g.shard]
		alive, mounted := false, false
		for _, ci := range g.carts {
			if r.CartridgeLost(ci) {
				continue
			}
			alive = true
			if r.Mounted(ci) {
				mounted = true
			}
		}
		if !alive {
			continue
		}
		if gi == 0 {
			primaryAlive = true
		}
		cands = append(cands, Candidate{
			Shard:      g.shard,
			QueueDepth: r.QueueDepth(),
			Headroom:   r.Headroom(),
			Mounted:    mounted,
			Cached:     rt.tiers[g.shard].Cached(g.slot),
			Primary:    gi == 0,
		})
		gidx = append(gidx, gi)
	}
	rt.cands, rt.groups = cands, gidx
	if len(cands) == 0 {
		// Every copy is lost. Dispatch to the primary shard anyway:
		// the shard fails the request in its own accounting, so
		// Served+Failed+Rejected+Shed still partitions the offered
		// stream.
		return decision{shard: groups[0].shard, slot: groups[0].slot, unroutable: true}, nil
	}
	// Grow and clear rather than append a make: the race detector's
	// instrumentation allocates that make, and routing must not.
	scores := slices.Grow(rt.scores[:0], len(cands))[:len(cands)]
	clear(scores)
	rt.scores = scores
	rt.policy.Score(ordinal, len(rt.runners), cands, scores)
	idx, ok := pickBest(scores, rt.seed, ordinal)
	if !ok {
		// Every candidate shard scored -Inf: all of them have zero
		// headroom (every drive down). Routing "arbitrarily" here would
		// mean the tie-break, not the policy, picked the shard — so
		// treat it like the all-copies-lost case instead: dispatch to
		// the primary shard, whose own breaker sheds or serves it, and
		// the partition stays exact.
		return decision{shard: groups[0].shard, slot: groups[0].slot, unroutable: true}, nil
	}
	pick := cands[idx]
	g := groups[gidx[idx]]
	return decision{
		shard:    g.shard,
		slot:     g.slot,
		affinity: pick.Mounted,
		cross:    !pick.Primary && !primaryAlive,
	}, nil
}

// pickBest selects the index of the best-scored candidate, resolving
// exact score ties by tieBreak(seed, ordinal) over the tied indices in
// index order. A NaN score ranks as -Inf: it never wins and never
// ties a real score. ok is false when even the best score is -Inf —
// every candidate shard has zero live capacity — and the caller must
// fall back to the unroutable path rather than let the tie-break
// choose among equally dead shards.
func pickBest(scores []float64, seed int64, ordinal int) (int, bool) {
	best, ties := math.Inf(-1), 0
	for _, s := range scores {
		switch {
		case s > best:
			best, ties = s, 1
		case s == best:
			ties++
		}
	}
	if math.IsInf(best, -1) {
		return 0, false
	}
	k := tieBreak(seed, ordinal, ties)
	for j, s := range scores {
		if s == best {
			if k == 0 {
				return j, true
			}
			k--
		}
	}
	panic("fleet: pickBest lost a tied score")
}
