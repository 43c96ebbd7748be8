package fleet

import "math"

// Candidate is one shard holding a live copy of a request's object,
// with the probes the routing tier reads off the shard's event loop
// at decision time.
type Candidate struct {
	// Shard is the shard index.
	Shard int
	// QueueDepth is the shard's pending backlog (offered or admitted,
	// not yet dispatched).
	QueueDepth int
	// Headroom is the shard's live capacity fraction — its brownout
	// breaker's view, 1 when every drive is up, 0 when all are down.
	Headroom float64
	// Mounted reports that one of the object's cartridges on this
	// shard is currently loaded in a drive.
	Mounted bool
	// Cached reports that the shard's staging cache holds the object
	// resident right now — the request would complete at disk cost
	// without touching the tape path at all. Always false when the
	// fleet runs without a cache.
	Cached bool
	// Primary marks the shard holding the object's copy 0.
	Primary bool
}

// Router scores routing candidates. Score fills scores[i] with
// cands[i]'s desirability; the fleet dispatches to the highest score
// and breaks exact ties by a seeded hash of the request ordinal, so a
// routing decision is a pure function of (router, probes, seed,
// ordinal) — never of map order, wall time or worker count.
// Implementations must be stateless: one Router value is shared by
// every concurrent sweep cell.
type Router interface {
	// Name labels the policy in tables and metric labels.
	Name() string
	// Score scores the candidates. ordinal is the request's index in
	// the fleet's arrival stream; shards is the cluster size (shard
	// IDs range over [0, shards)). len(scores) == len(cands) >= 1.
	Score(ordinal, shards int, cands []Candidate, scores []float64)
}

// PassThrough always routes to the primary shard — the shard a
// standalone library would be. A one-shard fleet under PassThrough
// reproduces tertiary.Sweep bit for bit, which
// TestSingleShardFleetEquivalence pins.
type PassThrough struct{}

// Name returns "pass-through".
func (PassThrough) Name() string { return "pass-through" }

// Score prefers the primary copy's shard.
func (PassThrough) Score(_, _ int, cands []Candidate, scores []float64) {
	for i, c := range cands {
		if c.Primary {
			scores[i] = 1
		}
	}
}

// RoundRobin deals requests across shards by ordinal, skipping
// cyclically to the next candidate shard when the dealt shard holds no
// live copy.
type RoundRobin struct{}

// Name returns "round-robin".
func (RoundRobin) Name() string { return "round-robin" }

// Score ranks candidates by cyclic distance from the dealt shard
// (ordinal mod shards): the dealt shard itself scores highest, the
// next candidate after it second, and so on.
func (RoundRobin) Score(ordinal, shards int, cands []Candidate, scores []float64) {
	target := ordinal % shards
	for i, c := range cands {
		scores[i] = -float64((c.Shard - target + shards) % shards)
	}
}

// LeastLoaded routes to the shard with the smallest effective load:
// queue depth scaled by the inverse of the shard's brownout headroom,
// so a shard serving on half its drives looks twice as loaded and a
// shard with no live drives is never chosen while an alternative
// exists. This is router-aware admission: the routing tier acts on
// the same capacity picture the shard's own breaker sheds by.
type LeastLoaded struct{}

// Name returns "least-loaded".
func (LeastLoaded) Name() string { return "least-loaded" }

// Score assigns -(depth+1)/headroom.
func (LeastLoaded) Score(_, _ int, cands []Candidate, scores []float64) {
	for i, c := range cands {
		scores[i] = loadScore(c)
	}
}

// loadScore is the shared load term: -(depth+1)/headroom, -Inf at
// zero headroom (all drives down).
func loadScore(c Candidate) float64 {
	if c.Headroom <= 0 {
		return math.Inf(-1)
	}
	return -float64(c.QueueDepth+1) / c.Headroom
}

// affinityBonus dominates any realistic load score (queue depths are
// bounded by the offered stream, headroom by 1/drives), so a mounted
// candidate always beats an unmounted one and load only breaks the
// tie within each class.
const affinityBonus = 1e12

// Affinity routes to a shard that already has the request's object in
// its staging cache (a disk-cost hit, no tape motion at all), then to
// one that has the cartridge in a drive — the request joins that
// cartridge's next batch without paying an exchange — falling back to
// least-loaded when no candidate has either.
type Affinity struct{}

// Name returns "affinity".
func (Affinity) Name() string { return "affinity" }

// Score is loadScore plus a dominating bonus for mounted candidates
// and a doubly dominating one for cached candidates: cache beats
// mount beats load. A dead shard (zero headroom) stays -Inf whatever
// it has mounted or cached — a bonus on top of -Inf is still -Inf —
// so affinity never routes into a shard with no live drives.
func (Affinity) Score(_, _ int, cands []Candidate, scores []float64) {
	for i, c := range cands {
		scores[i] = loadScore(c)
		if c.Mounted {
			scores[i] += affinityBonus
		}
		if c.Cached {
			scores[i] += 2 * affinityBonus
		}
	}
}

// tieBreak picks among k equally scored candidates as a pure function
// of (seed, ordinal): a splitmix64 finisher over the pair. Purity is
// what keeps routing — and therefore the whole fleet run —
// byte-identical at any worker count; TestTieBreakPure pins the
// function's values.
func tieBreak(seed int64, ordinal, k int) int {
	if k <= 1 {
		return 0
	}
	x := uint64(seed) + uint64(ordinal+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(k))
}
