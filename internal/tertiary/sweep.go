package tertiary

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/grid"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
	"serpentine/internal/rand48"
	"serpentine/internal/workload"
)

// SweepConfig describes the library experiment: the same synthetic
// store (tapes × objects, Zipf object popularity) served at every
// (arrival rate, drive count, batch limit) cell, exposing the central
// trade-off of online tertiary storage — larger batches cut the
// per-retrieval positioning cost (the paper's whole point) but make
// early requests wait for late ones, and more drives buy concurrency
// at the price of robot-arm contention.
type SweepConfig struct {
	// Profile is the drive/cartridge format; zero value selects the
	// DLT4000.
	Profile geometry.Params
	// TapeCount and Objects shape the store; 0 select 4 cartridges
	// of 512 objects. ObjectSegments is the extent length per object;
	// 0 selects 32 (1 MB on a DLT4000).
	TapeCount      int
	Objects        int
	ObjectSegments int
	// RatesPerHour are the Poisson arrival rates to sweep; nil
	// selects {60, 120, 240}.
	RatesPerHour []float64
	// DriveCounts are the transport pool sizes; nil selects {1, 2}.
	DriveCounts []int
	// BatchLimits caps requests served per mount; nil selects
	// {1, 16, 0} (0 = unlimited).
	BatchLimits []int
	// Requests is the stream length per cell; 0 selects 400.
	Requests int
	// QueueCap passes through to every cell's Config.
	QueueCap int
	// Faults arms every cell when any rate is non-zero. Its Seed is
	// ignored: each cell derives an injector base seed from Seed and
	// the cell coordinates.
	Faults fault.Config
	// Lifecycle arms component lifecycle faults in every cell when
	// any rate is non-zero. Its Seed is likewise ignored: each cell
	// derives one from Seed and the cell coordinates, so lifecycle
	// fault sequences do not depend on sweep order or worker count.
	Lifecycle fault.LifecycleConfig
	// Seed seeds each cell's arrival stream and object picks,
	// derived per cell so results do not depend on sweep order or
	// worker count.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives every cell's metrics, merged in
	// spec order after the parallel phase so the dump is identical
	// at any worker count.
	Reg *obs.Registry
	// SpanCap, when positive, gives every cell its own span tracer of
	// that capacity and returns the recorded spans and completions on
	// the Cell. Per-cell capture keeps the spans — like the metrics —
	// byte-identical at any worker count.
	SpanCap int
}

// Cell is one (rate, drives, batch limit) outcome.
type Cell struct {
	RatePerHour float64
	Drives      int
	BatchLimit  int
	Metrics     Metrics
	// Spans holds the cell's recorded spans when SweepConfig.SpanCap
	// was set; Completions the cell's served requests with latency
	// attribution, in completion order.
	Spans       []obs.Span
	Completions []Completion
}

// Sweep runs every cell of the library experiment. Cells run
// concurrently up to cfg.Workers, sharing the read-only store (tapes,
// locate models, catalog), but each cell is fully deterministic — its
// arrival stream, object picks and injector seeds depend only on the
// config and the cell coordinates — so the sweep's output is
// identical at any worker count.
func Sweep(cfg SweepConfig) ([]Cell, error) {
	tapeCount := cfg.TapeCount
	if tapeCount <= 0 {
		tapeCount = 4
	}
	objects := cfg.Objects
	if objects <= 0 {
		objects = 512
	}
	objSegs := cfg.ObjectSegments
	if objSegs <= 0 {
		objSegs = 32
	}
	rates := cfg.RatesPerHour
	if rates == nil {
		rates = []float64{60, 120, 240}
	}
	driveCounts := cfg.DriveCounts
	if driveCounts == nil {
		driveCounts = []int{1, 2}
	}
	limits := cfg.BatchLimits
	if limits == nil {
		limits = []int{1, 16, 0}
	}
	n := cfg.Requests
	if n <= 0 {
		n = 400
	}

	// Build the store once: the base library owns the tapes, locate
	// models and catalog every cell shares read-only.
	st, err := BuildStore(cfg.Profile, 1, tapeCount, objects, objSegs, 1)
	if err != nil {
		return nil, err
	}
	base := st.Shards[0]

	type cellSpec struct {
		rateIdx, driveIdx, limitIdx int
	}
	var specs []cellSpec
	for ri := range rates {
		for di := range driveCounts {
			for bi := range limits {
				specs = append(specs, cellSpec{ri, di, bi})
			}
		}
	}
	cells := make([]Cell, len(specs))
	err = grid.Capture{Reg: cfg.Reg, SpanCap: cfg.SpanCap}.Sweep(cfg.Workers, len(specs), func(i int, p grid.Probes) error {
		sp := specs[i]
		rate := rates[sp.rateIdx]
		drives := driveCounts[sp.driveIdx]
		limit := limits[sp.limitIdx]
		// One seed per cell coordinate: stable under sweep-order and
		// worker-count changes.
		seed := grid.Seed(cfg.Seed, sp.rateIdx, sp.driveIdx, sp.limitIdx)
		stream, err := SweepStream(rate, n, seed, tapeCount, objects)
		if err != nil {
			return fmt.Errorf("tertiary: sweep arrivals %g/h: %w", rate, err)
		}
		faults := cfg.Faults
		if faults.Enabled() {
			faults.Seed = seed + 3
		}
		lifecycle := cfg.Lifecycle
		if lifecycle.Enabled() {
			lifecycle.Seed = seed + 5
		}
		lib := base.Clone(Config{
			Drives:     drives,
			BatchLimit: limit,
			QueueCap:   cfg.QueueCap,
			Faults:     faults,
			Lifecycle:  lifecycle,
			Reg:        p.Reg,
			SpanTrace:  p.Spans.StartTrace(),
			Labels: []obs.Label{
				obs.L("rate", fmt.Sprintf("%g", rate)),
				obs.L("drives", strconv.Itoa(drives)),
				obs.L("batch", strconv.Itoa(limit)),
			},
		})
		comps, m, err := lib.Run(stream)
		if err != nil {
			return fmt.Errorf("tertiary: sweep cell %g/h %dd limit %d: %w", rate, drives, limit, err)
		}
		cell := Cell{RatePerHour: rate, Drives: drives, BatchLimit: limit, Metrics: m}
		if p.Spans != nil {
			cell.Spans = p.Spans.Spans()
			cell.Completions = comps
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// Clone returns a library sharing this library's read-only store —
// profile, tapes, locate models, catalog — under a different
// configuration. The sweeps use it to give every cell its own
// registry, tracer and knobs without regenerating the tapes; the fleet
// uses it to give every cell's shards their own labels and span lanes.
// The clone keeps the store's Profile and Tapes whatever cfg says; the
// remaining knobs are validated when the clone starts a run.
func (l *Library) Clone(cfg Config) *Library {
	cfg.Profile, cfg.Tapes = l.cfg.Profile, l.cfg.Tapes
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewAuto()
	}
	return &Library{
		cfg:     cfg.withDefaults(),
		catalog: l.catalog,
		serials: l.serials,
		index:   l.index,
		tapes:   l.tapes,
		models:  l.models,
		sched:   sched,
	}
}

// Store is the sweeps' synthetic store dealt across shard libraries,
// as BuildStore lays it out.
type Store struct {
	// Shards holds one base library per shard: its cartridges and
	// catalog, and in its Config().Placement the same-shard replicas
	// behind the catalog entries. Runs Clone it.
	Shards   []*Library
	replicas int
	copies   []StoreCopy
}

// StoreCopy is one copy of an object: the shard holding it and the
// index of the copy's cartridge in that shard's library
// (Library.Cartridge).
type StoreCopy struct {
	Shard, Cartridge int
}

// Copies returns object i's copies in copy order, copy 0 the primary;
// object o of cartridge t is i = t·objects + o.
func (st *Store) Copies(i int) []StoreCopy {
	return st.copies[i*st.replicas : (i+1)*st.replicas]
}

// BuildStore lays out the sweeps' synthetic store; every library-level
// sweep and the fleet serve a store it built. It generates each of
// tapeCount cartridges (serial 3000+t) and its locate model once, and
// deals cartridge t to shard t mod shards. Copy k of object o of
// cartridge t, named SweepObjectID(t, o), is objSegs segments at
// o·stride + k·objSegs on cartridge (t+k) mod tapeCount, stride being
// the holding cartridge's segment count over objects: every copy of an
// object on a distinct cartridge, and no two objects' extents
// overlapping. The first copy on a shard is that shard's catalog entry,
// later copies there its Placement replicas in copy order. A stride too
// short for replicas copies is an error. A zero profile selects the
// DLT4000.
func BuildStore(profile geometry.Params, shards, tapeCount, objects, objSegs, replicas int) (*Store, error) {
	if profile.Tracks == 0 {
		profile = geometry.DLT4000()
	}
	switch {
	case shards < 1 || shards > tapeCount:
		return nil, fmt.Errorf("tertiary: %d shards outside 1..%d, the cartridge count", shards, tapeCount)
	case replicas < 1 || replicas > tapeCount:
		return nil, fmt.Errorf("tertiary: replication factor %d outside 1..%d, the cartridge count", replicas, tapeCount)
	case objects < 1 || objSegs < 1:
		return nil, fmt.Errorf("tertiary: sweep store of %d objects of %d segments per cartridge", objects, objSegs)
	}
	tapes := make([]*geometry.Tape, tapeCount)
	models := make([]*locate.Model, tapeCount)
	strides := make([]int, tapeCount)
	for t := range tapeCount {
		serial := int64(3000 + t)
		var err error
		if tapes[t], models[t], err = loadCartridge(profile, serial); err != nil {
			return nil, fmt.Errorf("tertiary: sweep tape %d: %w", serial, err)
		}
		if strides[t] = tapes[t].Segments() / objects; strides[t] < replicas*objSegs {
			return nil, fmt.Errorf("tertiary: sweep: %d objects × %d copies of %d segments overflow tape %d",
				objects, replicas, objSegs, serial)
		}
	}

	catalogs := make([]*Catalog, shards)
	placements := make([]*Placement, shards)
	for s := range catalogs {
		catalogs[s] = NewCatalog()
	}
	st := &Store{
		Shards:   make([]*Library, shards),
		replicas: replicas,
		copies:   make([]StoreCopy, 0, tapeCount*objects*replicas),
	}
	for t := range tapeCount {
		for o := range objects {
			id := SweepObjectID(t, o)
			first := len(st.copies)
			for k := range replicas {
				tk := (t + k) % tapeCount
				c := StoreCopy{Shard: tk % shards, Cartridge: tk / shards}
				obj := Object{ID: id, Tape: int64(3000 + tk), Start: o*strides[tk] + k*objSegs, Segments: objSegs}
				onShard := slices.ContainsFunc(st.copies[first:], func(p StoreCopy) bool { return p.Shard == c.Shard })
				st.copies = append(st.copies, c)
				if !onShard {
					if err := catalogs[c.Shard].Put(obj); err != nil {
						return nil, err
					}
					continue
				}
				if placements[c.Shard] == nil {
					placements[c.Shard] = NewPlacement()
				}
				if err := placements[c.Shard].Put(id, obj); err != nil {
					return nil, err
				}
			}
		}
	}

	for s := range shards {
		cfg := Config{Profile: profile, Placement: placements[s]}
		var ts []*geometry.Tape
		var ms []*locate.Model
		for t := s; t < tapeCount; t += shards {
			cfg.Tapes = append(cfg.Tapes, int64(3000+t))
			ts, ms = append(ts, tapes[t]), append(ms, models[t])
		}
		lib, err := newLibrary(cfg.withDefaults(), catalogs[s], ts, ms)
		if err != nil {
			return nil, fmt.Errorf("tertiary: sweep store shard %d: %w", s, err)
		}
		st.Shards[s] = lib
	}
	return st, nil
}

// SweepStore is BuildStore's one-library, unreplicated store, kept as
// the entry point of the out-of-module benchmark harness. mountSec and
// unmountSec set the base library's exchange times (0 selects the
// defaults); the sweeps' cells set their own in their Clone.
func SweepStore(profile geometry.Params, tapeCount, objects, objSegs int, mountSec, unmountSec float64) (*Library, error) {
	st, err := BuildStore(profile, 1, tapeCount, objects, objSegs, 1)
	if err != nil {
		return nil, err
	}
	return st.Shards[0].Clone(Config{MountSec: mountSec, UnmountSec: unmountSec}), nil
}

// SweepStream builds one sweep cell's request stream: LocalityStream
// at locality 0.
func SweepStream(ratePerHour float64, n int, seed int64, tapeCount, objects int) ([]Request, error) {
	return LocalityStream(ratePerHour, n, seed, tapeCount, objects, 0)
}

// LocalityStream builds one cell's request stream over the sweeps'
// t<N>/o<M> naming: Poisson arrivals at ratePerHour, Zipf(0.8)-popular
// objects, and a mount-locality knob — with probability locality a
// request re-targets the previous request's cartridge (keeping its
// Zipf-drawn object ordinal), modeling runs of requests against the
// working set already mounted. At locality 0 the re-target coin is
// never drawn, so every sweep at one seed and store shape replays the
// same stream.
func LocalityStream(ratePerHour float64, n int, seed int64, tapeCount, objects int, locality float64) ([]Request, error) {
	if locality < 0 || locality >= 1 || math.IsNaN(locality) {
		return nil, fmt.Errorf("tertiary: locality %g outside [0,1)", locality)
	}
	arrivals, err := workload.PoissonArrivals(ratePerHour/3600, n, seed)
	if err != nil {
		return nil, err
	}
	pick := workload.NewZipf(tapeCount*objects, seed+1, 0.8, 1)
	var coin *rand48.Source
	if locality > 0 {
		coin = rand48.New(seed + 2)
	}
	prevTape := -1
	stream := make([]Request, n)
	for i := range stream {
		flat := pick.Batch(1)[0]
		tape, obj := flat/objects, flat%objects
		if coin != nil && prevTape >= 0 && coin.Drand48() < locality {
			tape = prevTape
		}
		prevTape = tape
		stream[i] = Request{ObjectID: SweepObjectID(tape, obj), Arrival: arrivals[i]}
	}
	return stream, nil
}

// SweepObjectID names object obj on the sweeps' cartridge tape,
// "t<tape>/o<obj>": the one writer of the IDs every synthetic store and
// stream uses, so a fleet built over the same shape catalogs exactly
// the IDs SweepStore does.
func SweepObjectID(tape, obj int) string {
	return "t" + strconv.Itoa(tape) + "/o" + strconv.Itoa(obj)
}

// WriteLibrary prints the sweep: one block per arrival rate, one row
// per (drives, batch limit), with delivered throughput, latency,
// exchange and robot-contention counters, and drive utilization.
func WriteLibrary(w io.Writer, cells []Cell) error {
	for _, block := range grid.Blocks(cells, func(c Cell) float64 { return c.RatePerHour }) {
		if _, err := fmt.Fprintf(w, "# arrival rate %g/h\n%6s %9s %8s %12s %12s %7s %8s %11s %9s %7s %6s\n",
			block[0].RatePerHour, "drives", "batch", "IO/h", "mean lat (s)", "max lat (s)", "mounts", "batches", "robot-wait", "rejected", "failed", "util%"); err != nil {
			return err
		}
		for _, c := range block {
			m := c.Metrics
			label := strconv.Itoa(c.BatchLimit)
			if c.BatchLimit == 0 {
				label = "unlim"
			}
			util := 0.0
			if m.Makespan > 0 && c.Drives > 0 {
				util = m.DriveBusySec / (float64(c.Drives) * m.Makespan) * 100
			}
			if _, err := fmt.Fprintf(w, "%6d %9s %8.1f %12.0f %12.0f %7d %8d %11.0f %9d %7d %6.2f\n",
				c.Drives, label, m.IOsPerHour(), m.MeanLatency, m.MaxLatency,
				m.Mounts, m.Batches, m.RobotWaitSec, m.Rejected, m.Failed, util); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
