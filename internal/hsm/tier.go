// Package hsm adds the storage hierarchy's missing middle: a
// bounded-bytes disk staging cache between admission and the tape
// library. Hits are served at disk cost — a fixed latency plus a
// bandwidth-priced transfer, no mount, no locate — and misses fall
// through to the library's own event loop (tertiary.Runner); when a
// miss's fetch completes, the extent is installed in the cache, with
// an optional prefetch of the rest of its coalesced segment run (the
// paper's T=1410 coalescing threshold reused as the prefetch unit).
// Eviction is pluggable (LRU, clock, cost-aware on the locate model's
// re-fetch price), and everything is pure virtual-time bookkeeping: a
// tier run is a deterministic function of its configuration.
//
// The spine of the package is the disabled case: a Tier with
// CapacityBytes 0 is a transparent pass-through, creating no cache
// state, no metric series and no spans, so its output is bit-identical
// to the bare library path — TestZeroCacheTierEquivalence and
// TestZeroCacheSweepEquivalence pin exactly this.
package hsm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"serpentine/internal/core"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// CacheDriveID is the DriveID a cache-hit completion carries: the
// staging disk is not one of the library's transports.
const CacheDriveID = tertiary.CacheDriveID

// The staging disk prices a hit as a fixed per-access overhead (seek
// plus request handling) plus a transfer at its streaming rate, a
// mid-90s RAID stripe to match the DLT4000 era.
const (
	diskLatencySec  = 0.005
	diskBytesPerSec = 8 << 20
)

// Config describes the staging tier.
type Config struct {
	// CapacityBytes bounds the cache. 0 disables the tier entirely:
	// every request passes straight to the library, and the tier's
	// output is bit-identical to the bare library path.
	CapacityBytes int64
	// Policy names the eviction policy: "lru" (default), "clock" or
	// "cost" (see NewPolicy).
	Policy string
	// Prefetch, on a miss's fetch return, also installs the objects
	// ahead of it on the same cartridge while successive extents start
	// within core.DefaultCoalesceThreshold segments (the paper's
	// T=1410) of the run's end — the whole coalesced segment run the
	// library would have read in one motion. Prefetch installs are
	// opportunistic: they fill free capacity but never evict
	// demand-resident data.
	Prefetch bool
}

// Enabled reports whether the tier caches at all.
func (c Config) Enabled() bool { return c.CapacityBytes > 0 }

// Metrics summarizes a tier run: the cache's own accounting plus the
// wrapped library's metrics. For a disabled tier only Lib is set.
type Metrics struct {
	// Hits and Misses partition the offered lookups; HitSojournSec
	// sums the hit completions' sojourn times (each latency + transfer)
	// and MaxHitSojourn is their maximum.
	Hits          int
	Misses        int
	HitSojournSec float64
	MaxHitSojourn float64
	// Installs counts demand installs (fetch returns admitted);
	// PrefetchInstalls the run-extension installs behind them.
	Installs         int
	PrefetchInstalls int
	// Evictions counts entries evicted under capacity pressure.
	Evictions int
	// Makespan is the run's end: the later of the library's makespan
	// and the last hit completion.
	Makespan float64
	// Lib is the wrapped library run's own metrics. With a cache,
	// Lib.Served counts only misses; Served() adds the hits back.
	Lib tertiary.Metrics
}

// Served is the total requests completed: library-served misses plus
// cache hits.
func (m Metrics) Served() int { return m.Lib.Served + m.Hits }

// HitRate is hits over lookups, 0 when nothing was offered.
func (m Metrics) HitRate() float64 {
	if m.Hits+m.Misses == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Hits+m.Misses)
}

// install is one pending cache fill: the fetch at entry rec of the
// runner's terminal record, landing at its Done time, at. Entries are
// in emission order until Finish, so rec breaks ties on at and the
// landing order is total. An install holds no pointers, so a landed
// one pins nothing.
type install struct {
	at  float64
	rec int32
}

// installQueue holds the pending installs in landing order, (at, rec).
type installQueue []install

func (q *installQueue) push(in install) {
	i, _ := slices.BinarySearchFunc(*q, in, func(a, b install) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.rec, b.rec))
	})
	*q = slices.Insert(*q, i, in)
}

// land hands every install due by now to apply, in landing order, and
// drops them. Most calls land nothing; they leave the slice header,
// and so the GC's write barrier, alone.
func (q *installQueue) land(now float64, apply func(install)) {
	n := 0
	for ; n < len(*q) && (*q)[n].at <= now; n++ {
		apply((*q)[n])
	}
	if n > 0 {
		*q = slices.Delete(*q, 0, n)
	}
}

// Tier is a staging cache wrapped around one library's incremental
// run loop, speaking the same Advance/Offer/Finish contract so both a
// standalone Run and the fleet's per-shard lockstep driving work
// unchanged. Like the Runner it wraps, a Tier belongs to one
// goroutine.
type Tier struct {
	runner *tertiary.Runner
	lib    *tertiary.Library
	cfg    Config

	cache    *Cache
	segBytes int64
	// priced is whether the policy is cost-aware, the only reader of
	// an entry's re-fetch cost. Otherwise installs skip RefetchSec and
	// record cost 0.
	priced bool
	// objs is the catalog in layout order (Library.Objects): an
	// object's index there is its cache slot, and a cartridge's objects
	// are one contiguous run of it, the run prefetch walks.
	objs []tertiary.Object

	installs  installQueue
	harvested int     // terminal record entries harvested so far
	last      float64 // latest offered arrival
	lastDone  float64 // latest hit completion

	m Metrics

	trace *obs.TraceHandle
	root  *obs.SpanHandle

	hitC, missC, installC, prefetchC, evictC *obs.Counter
	residentG                                *obs.Gauge
	hitHist                                  *obs.Histogram

	finished bool
}

// NewTier opens the library's run loop behind a staging cache. With
// CapacityBytes 0 the tier is a transparent pass-through: the library
// is opened as-is and no cache state, metric series or spans exist.
// With a cache, the tier inherits the library's registry, labels and
// span wiring (Library.Config), nesting a "cache" span above the
// library's run span when tracing is on.
func NewTier(lib *tertiary.Library, cfg Config) (*Tier, error) {
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("hsm: cache capacity %d bytes", cfg.CapacityBytes)
	}
	t := &Tier{lib: lib, cfg: cfg}
	if !cfg.Enabled() {
		r, err := lib.StartRun()
		if err != nil {
			return nil, err
		}
		t.runner = r
		return t, nil
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	t.cache = NewCache(cfg.CapacityBytes, pol)
	_, t.priced = pol.(*costAware)

	lc := lib.Config()
	t.segBytes = lc.Profile.SegmentBytes
	if lc.SpanTrace != nil {
		root := lc.SpanTrace.Start("cache", lc.SpanParent, 0).
			Attr("policy", pol.Name()).
			AttrInt("capacity_mb", int(cfg.CapacityBytes>>20)).
			Lane(lc.Lane)
		t.trace, t.root = lc.SpanTrace, root
		lc.SpanParent = root
		lib = lib.Clone(lc)
		t.lib = lib
	}
	// Without a registry the handles are nil and every write no-ops.
	t.hitC = lc.Reg.Counter("cache_hits_total", lc.Labels...)
	t.missC = lc.Reg.Counter("cache_misses_total", lc.Labels...)
	t.installC = lc.Reg.Counter("cache_installs_total", lc.Labels...)
	t.prefetchC = lc.Reg.Counter("cache_prefetch_installs_total", lc.Labels...)
	t.evictC = lc.Reg.Counter("cache_evictions_total", lc.Labels...)
	t.residentG = lc.Reg.Gauge("cache_bytes_resident", lc.Labels...)
	t.hitHist = lc.Reg.Histogram("cache_hit_seconds", lc.Labels...)

	t.objs = lib.Objects()

	r, err := lib.StartRun()
	if err != nil {
		return nil, err
	}
	t.runner = r
	return t, nil
}

// Runner exposes the wrapped library loop for probes (queue depth,
// mounted cartridges, headroom) — the routing tier reads them off the
// same runner the tier drives.
func (t *Tier) Runner() *tertiary.Runner { return t.runner }

// Cached reports residency of the object in slot — its index in the
// library's Objects() — as of the tier's last advance, without
// touching recency state: the router's hit/miss probe. Always false
// for a disabled tier.
func (t *Tier) Cached(slot int) bool {
	return t.cache != nil && t.cache.Contains(slot)
}

// objBytes is the extent's size under the library's profile.
func (t *Tier) objBytes(o tertiary.Object) int64 {
	return int64(o.Len()) * t.segBytes
}

// AdvanceTo advances the wrapped loop to t, then harvests fetch
// returns and applies every install due by then, so Cached answers as
// of ts.
func (t *Tier) AdvanceTo(ts float64) error {
	if err := t.runner.AdvanceTo(ts); err != nil {
		return err
	}
	if t.cache != nil {
		t.absorb(ts)
	}
	return nil
}

// absorb harvests the library's newly recorded fetches into the
// install queue and applies the installs due by now. Fetches are
// recorded at batch dispatch time with Done timestamps that may lie
// ahead; after AdvanceTo(now) every fetch with Done <= now has been
// recorded, so the applied set is exact.
func (t *Tier) absorb(now float64) {
	rec := t.runner.Terminals()
	for i := t.harvested; i < len(rec); i++ {
		e := &rec[i]
		if e.Outcome != tertiary.OutcomeServed || e.Cache {
			continue
		}
		t.installs.push(install{at: e.Done, rec: int32(i)})
	}
	t.harvested = len(rec)
	t.installs.land(now, t.apply)
}

// apply lands one fetched extent in the cache and, when configured,
// prefetches the rest of its coalesced run. A resident extent is only
// refreshed, so its re-fetch price is never computed.
func (t *Tier) apply(in install) {
	e := &t.runner.Terminals()[in.rec]
	slot := t.runner.Slot(e)
	if slot < 0 {
		return // not in this library's catalog: nothing to stage
	}
	obj := t.runner.Object(e) // the catalog copy or a replica
	if !t.cache.Touch(slot) && t.cache.Install(slot, t.objBytes(obj), t.refetchSec(obj)) {
		t.m.Installs++
		t.installC.Inc()
	}
	t.syncCacheCounters()
	if t.cfg.Prefetch {
		t.prefetch(slot, obj)
	}
}

// prefetch extends the fetched extent into its coalesced segment run:
// walking the cartridge's layout order forward from the extent, every
// object whose start lies within the coalescing threshold of the
// run's end joins the run and is installed if free capacity holds it.
// This is the paper's coalescing analysis inverted — the segments the
// library would have merged into one motion are the segments worth
// keeping once the motion was paid for.
//
// An extent is priced only once free capacity is known to hold it:
// most run neighbours are resident already or do not fit.
func (t *Tier) prefetch(slot int, o tertiary.Object) {
	if c := t.objs[slot]; c.Tape != o.Tape || c.Start != o.Start {
		// A replica read. A replica carries its object's ID on another
		// cartridge than the catalog copy, so it is not in the layout.
		return
	}
	runEnd := o.Start + o.Len()
	for j := slot + 1; j < len(t.objs) && t.objs[j].Tape == o.Tape; j++ {
		next := t.objs[j]
		if next.Start-runEnd >= core.DefaultCoalesceThreshold {
			return
		}
		if b := t.objBytes(next); !t.cache.Contains(j) && t.cache.Fits(b) {
			t.cache.InstallIfRoom(j, b, t.refetchSec(next))
			t.m.PrefetchInstalls++
			t.prefetchC.Inc()
		}
		if end := next.Start + next.Len(); end > runEnd {
			runEnd = end
		}
	}
}

// refetchSec is the entry cost an install records: the library's
// modeled re-fetch time when the cache reads costs (see priced), else 0.
func (t *Tier) refetchSec(o tertiary.Object) float64 {
	if !t.priced {
		return 0
	}
	return t.lib.RefetchSec(o)
}

// syncCacheCounters folds the cache's eviction counters into the tier
// metrics and the registry.
func (t *Tier) syncCacheCounters() {
	if d := t.cache.Evictions() - t.m.Evictions; d > 0 {
		t.m.Evictions += d
		t.evictC.Add(int64(d))
	}
	t.residentG.Set(float64(t.cache.Resident()))
}

// Offer routes one request: a resident object completes at disk cost,
// anything else falls through to the library's admission — so only
// misses consume the library's queue capacity. Offers must be
// nondecreasing in arrival time, like the Runner's. Offer looks the
// object's ID up in the catalog once; everything after it goes by slot.
func (t *Tier) Offer(req tertiary.Request) error {
	return t.OfferRouted(req, t.lib.Slot(req.ObjectID), "")
}

// OfferRouted is Offer for a caller that has already resolved the
// object's slot (Library.Slot: its index in the library's Objects(),
// -1 when uncataloged), carrying the routing tier's decision for the
// request: pure annotation, stamped onto the request's wide event (by
// the tier for a hit, by the library for a miss) and nothing else. The
// slot keys the cache and is passed on to the runner, which rejects a
// slot that does not hold the request's object.
func (t *Tier) OfferRouted(req tertiary.Request, slot int, route string) error {
	if t.cache == nil {
		return t.runner.OfferRouted(req, slot, route)
	}
	if t.finished {
		return fmt.Errorf("hsm: offer after Finish")
	}
	if math.IsNaN(req.Arrival) || math.IsInf(req.Arrival, 0) {
		return fmt.Errorf("hsm: request arrives at %g", req.Arrival)
	}
	if req.Arrival < t.last {
		return fmt.Errorf("hsm: request offered at %g behind the clock (last offer %g)", req.Arrival, t.last)
	}
	t.last = req.Arrival
	t.absorb(req.Arrival)
	if t.cache.Touch(slot) {
		return t.hit(req, slot, route)
	}
	t.m.Misses++
	t.missC.Inc()
	return t.runner.OfferRouted(req, slot, route)
}

// hit completes the request for the object in slot off the staging
// disk.
func (t *Tier) hit(req tertiary.Request, slot int, route string) error {
	transfer := float64(t.objBytes(t.objs[slot])) / diskBytesPerSec
	svc := diskLatencySec + transfer
	done := req.Arrival + svc
	if err := t.runner.RecordHit(req, slot, route, done, tertiary.Attribution{
		LocateSec:   diskLatencySec,
		TransferSec: transfer,
	}); err != nil {
		return err
	}
	t.m.Hits++
	t.m.HitSojournSec += svc
	if svc > t.m.MaxHitSojourn {
		t.m.MaxHitSojourn = svc
	}
	if done > t.lastDone {
		t.lastDone = done
	}
	t.hitC.Inc()
	t.hitHist.Observe(svc)
	if t.trace != nil {
		t.trace.Start("hit", t.root, req.Arrival).
			Attr("object", req.ObjectID).
			End(done)
	}
	return nil
}

// Finish drains the wrapped loop, applies every remaining install, and
// returns the completions — library fetches and cache hits together in
// completion-time order, a hit ahead of a fetch completing at the same
// instant (the runner's record holds both) — with the tier metrics.
// For a disabled tier this is exactly the Runner's Finish.
func (t *Tier) Finish() ([]tertiary.Completion, Metrics, error) {
	if t.cache == nil {
		comps, lm, err := t.runner.Finish()
		return comps, Metrics{Lib: lm, Makespan: lm.Makespan}, err
	}
	if t.finished {
		return nil, Metrics{}, fmt.Errorf("hsm: double Finish")
	}
	t.finished = true
	// Drain the loop before Finish sorts the terminal record: the
	// harvest index is only valid against emission order.
	if err := t.runner.AdvanceTo(math.Inf(1)); err != nil {
		return nil, Metrics{}, err
	}
	t.absorb(math.Inf(1))
	comps, lm, err := t.runner.Finish()
	if err != nil {
		return nil, Metrics{}, err
	}
	t.syncCacheCounters()
	t.m.Lib = lm
	t.m.Makespan = lm.Makespan
	if t.lastDone > t.m.Makespan {
		t.m.Makespan = t.lastDone
	}
	if t.root != nil {
		t.root.AttrInt("hits", t.m.Hits).
			AttrInt("misses", t.m.Misses).
			AttrInt("evictions", t.m.Evictions).
			End(t.m.Makespan)
	}
	return comps, t.m, nil
}

// Run serves a whole stream through the tier, the way Library.Run
// serves one without it: requests are stably sorted by arrival, the
// loop advances to each instant, every request at that instant is
// offered, and Finish folds up the run.
func (t *Tier) Run(stream []tertiary.Request) ([]tertiary.Completion, Metrics, error) {
	reqs := append([]tertiary.Request(nil), stream...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	for i := 0; i < len(reqs); {
		at := reqs[i].Arrival
		if err := t.AdvanceTo(at); err != nil {
			return nil, Metrics{}, err
		}
		for ; i < len(reqs) && reqs[i].Arrival == at; i++ {
			if err := t.Offer(reqs[i]); err != nil {
				return nil, Metrics{}, err
			}
		}
	}
	return t.Finish()
}
