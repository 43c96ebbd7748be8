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
// over. Cartridge t (serial 3000+t, the single-library sweeps'
// numbering) lives on shard t mod Shards; copy k of object (t, o)
// lives on cartridge (t+k) mod TapeCount at the same catalog slot,
// offset k extents in — every copy on a distinct cartridge, and with
// Replicas > 1 usually on a distinct shard. A zero count selects its
// default; a negative one is an error.
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
	// replication. Must not exceed TapeCount, and the catalog stride
	// must fit Replicas copies.
	Replicas int
}

// copyGroup is one shard's copies of an object: the shard index, the
// object's cache slot there (its index in the shard library's
// Objects(), which the staging tier indexes residency by), and the
// cartridge serials holding the copies, in copy order. The first group
// of an object's directory entry is the shard holding copy 0 — the
// primary shard.
type copyGroup struct {
	shard   int
	slot    int
	serials []int64
}

// Fleet is a built cluster: per-shard base libraries sharing their
// read-only stores, per-shard replica placements, and the routing
// directory mapping every object to the shards holding its copies and
// its cache slot on each. Routing looks a request's ID up once, in
// index (keyed by the IDs New wrote); the shard and slot it picks carry
// the request through the shard's staging tier to its runner, which
// reads the object at that slot instead of hashing the ID again. A Fleet is
// immutable after New; Run clones per-shard libraries for each run, so
// one Fleet serves concurrent runs (the sweep's cells).
type Fleet struct {
	cfg        StoreConfig
	bases      []*tertiary.Library
	placements []*tertiary.Placement
	tapes      [][]int64
	index      map[string]int // object ID -> position in dir
	dir        [][]copyGroup
}

// New builds the fleet store: generates every cartridge, deals them
// across shards, builds each shard's catalog and same-shard replica
// placement, and indexes every object's copies for the routing tier.
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
	if cfg.Profile.Tracks == 0 {
		cfg.Profile = geometry.DLT4000()
	}
	if cfg.Shards > cfg.TapeCount {
		return nil, fmt.Errorf("fleet: %d shards need at least as many cartridges, have %d", cfg.Shards, cfg.TapeCount)
	}
	if cfg.Replicas > cfg.TapeCount {
		return nil, fmt.Errorf("fleet: replication factor %d exceeds %d cartridges", cfg.Replicas, cfg.TapeCount)
	}

	// Strides are per cartridge: each generated tape has its own
	// segment count (serial-seeded manufacturing variation), exactly
	// as the single-library sweeps lay their stores out. Copy k of an
	// object sits at slot k inside the holding tape's own stride, so
	// every copy fits whatever that tape's length turned out to be.
	strides := make([]int, cfg.TapeCount)
	for t := 0; t < cfg.TapeCount; t++ {
		tape, err := geometry.Generate(cfg.Profile, int64(3000+t))
		if err != nil {
			return nil, fmt.Errorf("fleet: tape %d: %w", 3000+t, err)
		}
		strides[t] = tape.Segments() / cfg.Objects
		if strides[t] < cfg.Replicas*cfg.ObjectSegments {
			return nil, fmt.Errorf("fleet: %d objects × %d copies of %d segments overflow tape %d",
				cfg.Objects, cfg.Replicas, cfg.ObjectSegments, 3000+t)
		}
	}

	f := &Fleet{
		cfg:        cfg,
		bases:      make([]*tertiary.Library, cfg.Shards),
		placements: make([]*tertiary.Placement, cfg.Shards),
		tapes:      make([][]int64, cfg.Shards),
		index:      make(map[string]int, cfg.TapeCount*cfg.Objects),
		dir:        make([][]copyGroup, 0, cfg.TapeCount*cfg.Objects),
	}
	serial := func(t int) int64 { return int64(3000 + t) }
	for t := 0; t < cfg.TapeCount; t++ {
		s := t % cfg.Shards
		f.tapes[s] = append(f.tapes[s], serial(t))
	}

	catalogs := make([]*tertiary.Catalog, cfg.Shards)
	for s := range catalogs {
		catalogs[s] = tertiary.NewCatalog()
	}
	for t := 0; t < cfg.TapeCount; t++ {
		for o := 0; o < cfg.Objects; o++ {
			// The sweeps' naming, so a one-shard fleet's catalog is
			// identical to tertiary.Sweep's.
			id := tertiary.SweepObjectID(t, o)
			var groups []copyGroup
			// reps collects, per shard, the same-shard replica extents
			// behind the shard's catalog copy.
			var reps map[int][]tertiary.Object
			for k := 0; k < cfg.Replicas; k++ {
				tk := (t + k) % cfg.TapeCount
				sk := tk % cfg.Shards
				obj := tertiary.Object{
					ID:       id,
					Tape:     serial(tk),
					Start:    o*strides[tk] + k*cfg.ObjectSegments,
					Segments: cfg.ObjectSegments,
				}
				gi := -1
				for j := range groups {
					if groups[j].shard == sk {
						gi = j
						break
					}
				}
				if gi < 0 {
					// First copy on this shard: the shard's catalog
					// entry.
					groups = append(groups, copyGroup{shard: sk, serials: []int64{obj.Tape}})
					if err := catalogs[sk].Put(obj); err != nil {
						return nil, err
					}
					continue
				}
				// A later copy landing on a shard that already has
				// one: a same-shard replica behind its catalog entry.
				groups[gi].serials = append(groups[gi].serials, obj.Tape)
				if reps == nil {
					reps = make(map[int][]tertiary.Object, 1)
				}
				reps[sk] = append(reps[sk], tertiary.Object{
					Tape: obj.Tape, Start: obj.Start, Segments: obj.Segments,
				})
			}
			for _, g := range groups {
				if rs := reps[g.shard]; len(rs) > 0 {
					if f.placements[g.shard] == nil {
						f.placements[g.shard] = tertiary.NewPlacement()
					}
					if err := f.placements[g.shard].Put(id, rs...); err != nil {
						return nil, err
					}
				}
			}
			f.index[id] = len(f.dir)
			f.dir = append(f.dir, groups)
		}
	}

	for s := 0; s < cfg.Shards; s++ {
		base, err := tertiary.New(tertiary.Config{
			Profile:   cfg.Profile,
			Tapes:     f.tapes[s],
			Placement: f.placements[s],
		}, catalogs[s])
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d store: %w", s, err)
		}
		f.bases[s] = base
		for slot, o := range base.Objects() {
			groups := f.dir[f.index[o.ID]]
			for j := range groups {
				if groups[j].shard == s {
					groups[j].slot = slot
				}
			}
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

// routeName renders the decision for the request's wide event.
func (d decision) routeName() string {
	switch {
	case d.unroutable:
		return "unroutable"
	case d.cross:
		return "cross-shard"
	case d.affinity:
		return "affinity"
	}
	return "routed"
}

// foldRecords merges the shards' terminal records, each sorted by
// (Done, Seq), k-way in (Done, Shard, Seq) order, a total order since
// (Shard, Seq) is unique: on equal Done (±0 alike) the lowest shard's
// head goes first. The one walk feeds both post-run consumers: dst,
// when non-nil, gets each entry's wide event (built by event, keeping
// its per-shard Seq) with labels attached, and health, when non-nil,
// scores each entry under "shard=N" and, when a drive served or failed
// it, "shard=N/drive=D", in the terminal-time order it requires.
func foldRecords(recs [][]tertiary.Terminal, event func(shard int, t *tertiary.Terminal) obs.Event,
	dst *obs.EventRing, labels []obs.Label, health *obs.HealthTracker) {
	heads := make([]int, len(recs))
	keys := make([][]string, len(recs)) // shard key, then drive d's at d+1, each rendered once
	for {
		s := -1
		for k, rec := range recs {
			if heads[k] < len(rec) && (s < 0 || rec[heads[k]].Done < recs[s][heads[s]].Done) {
				s = k
			}
		}
		if s < 0 {
			return
		}
		t := &recs[s][heads[s]]
		heads[s]++
		if dst != nil {
			ev := event(s, t)
			if len(labels) > 0 {
				ev.Labels = append([]obs.Label(nil), labels...)
			}
			dst.Add(ev)
		}
		if health == nil {
			continue
		}
		ks, good := keys[s], t.Outcome == tertiary.OutcomeServed
		if ks == nil {
			ks = []string{"shard=" + strconv.Itoa(s)}
		}
		health.Observe(ks[0], t.Done, good)
		if d := int(t.Drive) + 1; d > 0 {
			for len(ks) <= d {
				ks = append(ks, "")
			}
			if ks[d] == "" {
				ks[d] = ks[0] + "/drive=" + strconv.Itoa(d-1)
			}
			health.Observe(ks[d], t.Done, good)
		}
		keys[s] = ks
	}
}

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
			Profile:     f.cfg.Profile,
			Tapes:       f.tapes[s],
			Drives:      drives,
			BatchLimit:  cfg.BatchLimit,
			QueueCap:    cfg.QueueCap,
			Lifecycle:   lc,
			Placement:   f.placements[s],
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
			if err := tiers[d.shard].OfferRouted(stream[i], d.slot, d.routeName()); err != nil {
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
		foldRecords(recs, func(s int, t *tertiary.Terminal) obs.Event { return runners[s].Event(t) },
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
		for _, serial := range g.serials {
			if r.CartridgeLost(serial) {
				continue
			}
			alive = true
			if r.Mounted(serial) {
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
