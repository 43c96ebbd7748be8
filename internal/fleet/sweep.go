package fleet

import (
	"fmt"
	"strconv"

	"serpentine/internal/fault"
	"serpentine/internal/grid"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// Stream builds one cell's request stream: tertiary.LocalityStream,
// Poisson arrivals and Zipf object popularity with the mount-locality
// knob. At locality 0 it is the single-library sweeps' stream for the
// same seed and store shape, which is what lets a one-shard fleet cell
// reproduce a tertiary.Sweep cell exactly.
func Stream(ratePerHour float64, n int, seed int64, tapeCount, objects int, locality float64) ([]tertiary.Request, error) {
	return tertiary.LocalityStream(ratePerHour, n, seed, tapeCount, objects, locality)
}

// SweepConfig describes the fleet experiment: one cluster-wide store
// served at every (arrival rate, shard count, routing policy) cell.
// The axes expose the routing trade-off: more shards buy parallel
// robots and drives at the price of a thinner per-shard view of the
// workload, and the policies disagree exactly when mount locality
// makes a shard's working set worth returning to.
type SweepConfig struct {
	// TapeCount, Objects and Replicas shape the cluster store exactly
	// as in StoreConfig (defaults 8, 256, 1; 32-segment extents on
	// DLT4000 cartridges; negative counts are rejected). Every shard
	// count in the sweep shares the same cartridges and object layout.
	TapeCount int
	Objects   int
	Replicas  int
	// RatesPerHour are the Poisson arrival rates to sweep; nil
	// selects {60, 120, 240}.
	RatesPerHour []float64
	// ShardCounts are the cluster sizes; nil selects {1, 2, 4}.
	ShardCounts []int
	// Routers are the routing policies; nil selects round-robin,
	// least-loaded and affinity.
	Routers []Router
	// Drives is the transport count per shard; 0 selects 2, and it
	// must not be negative.
	// BatchLimit caps requests served per mount; 0 selects 16 (the
	// fleet sweep has no unlimited-batch axis — use tertiary.Sweep
	// for that).
	Drives     int
	BatchLimit int
	// QueueCap and DeadlineSec pass through to every shard.
	QueueCap    int
	DeadlineSec float64
	// Locality is the stream's mount-locality knob (see Stream).
	Locality float64
	// Lifecycle arms component lifecycle faults on every shard; its
	// Seed is ignored — each cell derives one from Seed and the cell
	// coordinates, and each shard offsets it further.
	Lifecycle fault.LifecycleConfig
	// Cache puts an hsm staging tier in front of every shard of every
	// cell; the zero value disables it (see RunConfig.Cache).
	Cache hsm.Config
	// Requests is the stream length per cell; 0 selects 400, and it
	// must not be negative.
	Requests int
	// Seed seeds each cell's arrival stream, object picks and routing
	// tie-break, derived per (rate, shards) coordinate so results do
	// not depend on sweep order or worker count and every router at
	// one coordinate replays the same workload. The derivation
	// matches tertiary.Sweep's index positions, so aligned
	// single-shard grids share streams.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives every cell's metrics — per-shard
	// series under shard="N" plus the fleet routing counters — merged
	// in spec order after the parallel phase.
	Reg *obs.Registry
	// EventCap, when positive, gives every cell its own wide-event ring
	// of that capacity and returns the collected events on the Cell,
	// each stamped with the cell's coordinate labels.
	EventCap int
}

// Cell is one (rate, shards, router) outcome.
type Cell struct {
	RatePerHour float64
	Shards      int
	Router      string
	// Metrics is the fleet-level outcome; PerShard and Routed break
	// it down by shard (completions are not retained).
	Metrics  Metrics
	PerShard []tertiary.Metrics
	Routed   []int
	// Events holds the cell's wide-event log — one event per request,
	// ordered by terminal time — when SweepConfig.EventCap was set.
	Events []obs.Event
}

// Sweep runs every cell of the fleet experiment. Cells run
// concurrently up to cfg.Workers — cluster stores are shared
// read-only per shard count — but each cell is fully deterministic,
// so the sweep's output is identical at any worker count.
func Sweep(cfg SweepConfig) ([]Cell, error) {
	if cfg.Drives < 0 || cfg.Requests < 0 || cfg.TapeCount < 0 || cfg.Objects < 0 {
		return nil, fmt.Errorf("fleet: negative drive, request, cartridge or object count (%d, %d, %d, %d)",
			cfg.Drives, cfg.Requests, cfg.TapeCount, cfg.Objects)
	}
	rates := cfg.RatesPerHour
	if rates == nil {
		rates = []float64{60, 120, 240}
	}
	shardCounts := cfg.ShardCounts
	if shardCounts == nil {
		shardCounts = []int{1, 2, 4}
	}
	routers := cfg.Routers
	if routers == nil {
		routers = []Router{RoundRobin{}, LeastLoaded{}, Affinity{}}
	}
	drives := cfg.Drives
	if drives == 0 {
		drives = 2
	}
	limit := cfg.BatchLimit
	if limit == 0 {
		limit = 16
	}
	n := cfg.Requests
	if n == 0 {
		n = 400
	}
	tapeCount := cfg.TapeCount
	if tapeCount == 0 {
		tapeCount = 8
	}
	objects := cfg.Objects
	if objects == 0 {
		objects = 256
	}

	// One cluster store per distinct shard count, shared read-only by
	// that count's cells.
	fleets := make(map[int]*Fleet, len(shardCounts))
	for _, s := range shardCounts {
		if fleets[s] != nil {
			continue
		}
		f, err := New(StoreConfig{
			Shards:    s,
			TapeCount: tapeCount,
			Objects:   objects,
			Replicas:  cfg.Replicas,
		})
		if err != nil {
			return nil, err
		}
		fleets[s] = f
	}

	type cellSpec struct {
		rateIdx, shardIdx, routerIdx int
	}
	var specs []cellSpec
	for ri := range rates {
		for si := range shardCounts {
			for pi := range routers {
				specs = append(specs, cellSpec{ri, si, pi})
			}
		}
	}
	cells := make([]Cell, len(specs))
	err := grid.Capture{Reg: cfg.Reg}.Sweep(cfg.Workers, len(specs), func(i int, p grid.Probes) error {
		sp := specs[i]
		rate := rates[sp.rateIdx]
		shards := shardCounts[sp.shardIdx]
		router := routers[sp.routerIdx]
		// One seed per (rate, shards) coordinate, in tertiary.Sweep's
		// index positions: stable under sweep-order and worker-count
		// changes, and aligned with the single-library sweep for
		// equivalence tests. The router axis is deliberately excluded
		// — every policy at one coordinate replays the same stream,
		// tie-break draws and failure history, so the router column
		// isolates what the policy buys.
		seed := grid.Seed(cfg.Seed, sp.rateIdx, sp.shardIdx, 0)
		stream, err := Stream(rate, n, seed, tapeCount, objects, cfg.Locality)
		if err != nil {
			return fmt.Errorf("fleet: sweep arrivals %g/h: %w", rate, err)
		}
		lifecycle := cfg.Lifecycle
		if lifecycle.Enabled() {
			lifecycle.Seed = seed + 5
		}
		var events *obs.EventRing
		if cfg.EventCap > 0 {
			events = obs.NewEventRing(cfg.EventCap)
		}
		res, fm, err := fleets[shards].Run(RunConfig{
			Drives:      drives,
			BatchLimit:  limit,
			QueueCap:    cfg.QueueCap,
			DeadlineSec: cfg.DeadlineSec,
			Lifecycle:   lifecycle,
			Cache:       cfg.Cache,
			Router:      router,
			Seed:        seed,
			Reg:         p.Reg,
			Labels: []obs.Label{
				obs.L("rate", fmt.Sprintf("%g", rate)),
				obs.L("shards", strconv.Itoa(shards)),
				obs.L("router", router.Name()),
			},
			Events: events,
		}, stream)
		if err != nil {
			return fmt.Errorf("fleet: sweep cell %g/h %d shards %s: %w", rate, shards, router.Name(), err)
		}
		cell := Cell{RatePerHour: rate, Shards: shards, Router: router.Name(), Metrics: fm}
		for s := range res {
			cell.PerShard = append(cell.PerShard, res[s].Metrics)
			cell.Routed = append(cell.Routed, res[s].Routed)
		}
		if events != nil {
			cell.Events = events.Events()
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}
