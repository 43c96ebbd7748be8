package tertiary

import (
	"fmt"
	"io"
	"strconv"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/grid"
	"serpentine/internal/obs"
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
	profile := cfg.Profile
	if profile.Tracks == 0 {
		profile = geometry.DLT4000()
	}
	base, err := SweepStore(profile, tapeCount, objects, objSegs, 0, 0)
	if err != nil {
		return nil, err
	}
	serials := base.Tapes()

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
		stream, err := sweepStream(rate, n, seed, tapeCount, objects)
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
			Profile:    profile,
			Tapes:      serials,
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
// tapes, locate models, catalog — under a different configuration.
// The sweeps use it to give every cell its own registry, tracer and
// knobs without regenerating the tapes; the fleet uses it to give
// every cell's shards their own labels and span lanes. The
// configuration's Profile and Tapes must describe the shared store:
// they are not revalidated. The remaining knobs are validated when the
// clone starts a run.
func (l *Library) Clone(cfg Config) *Library {
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

// SweepStore builds the sweeps' shared synthetic store: tapeCount
// cartridges (serials 3000+t, matching the sweeps' t<N>/o<M> object
// naming) each holding `objects` extents of objSegs segments laid out
// stride-aligned along the tape. The returned base library owns the
// tapes, locate models and catalog; sweep cells Clone it with their
// own knobs, registries and tracers. A zero profile selects the
// DLT4000; mountSec/unmountSec pass through to the base Config (cells
// normally override them in their Clone anyway). Exported so the
// staging-tier sweep (hsm) can serve the exact store a library sweep
// cell serves.
func SweepStore(profile geometry.Params, tapeCount, objects, objSegs int, mountSec, unmountSec float64) (*Library, error) {
	if profile.Tracks == 0 {
		profile = geometry.DLT4000()
	}
	catalog := NewCatalog()
	serials := make([]int64, tapeCount)
	for t := 0; t < tapeCount; t++ {
		serial := int64(3000 + t)
		serials[t] = serial
		tape, err := geometry.Generate(profile, serial)
		if err != nil {
			return nil, fmt.Errorf("tertiary: sweep tape %d: %w", serial, err)
		}
		stride := tape.Segments() / objects
		if stride < objSegs {
			return nil, fmt.Errorf("tertiary: sweep: %d objects of %d segments overflow tape %d", objects, objSegs, serial)
		}
		for o := 0; o < objects; o++ {
			if err := catalog.Put(Object{
				ID:       SweepObjectID(t, o),
				Tape:     serial,
				Start:    o * stride,
				Segments: objSegs,
			}); err != nil {
				return nil, err
			}
		}
	}
	base, err := New(Config{Profile: profile, Tapes: serials, MountSec: mountSec, UnmountSec: unmountSec}, catalog)
	if err != nil {
		return nil, fmt.Errorf("tertiary: sweep store: %w", err)
	}
	return base, nil
}

// SweepStream builds one sweep cell's request stream — Poisson
// arrivals at ratePerHour, Zipf(0.8)-popular objects over the sweeps'
// t<N>/o<M> naming — exported so the staging-tier sweep (hsm) can
// replay the exact stream a library sweep cell serves.
func SweepStream(ratePerHour float64, n int, seed int64, tapeCount, objects int) ([]Request, error) {
	return sweepStream(ratePerHour, n, seed, tapeCount, objects)
}

// sweepStream builds one cell's request stream: Poisson arrivals,
// Zipf-popular objects.
func sweepStream(ratePerHour float64, n int, seed int64, tapeCount, objects int) ([]Request, error) {
	arrivals, err := workload.PoissonArrivals(ratePerHour/3600, n, seed)
	if err != nil {
		return nil, err
	}
	pick := workload.NewZipf(tapeCount*objects, seed+1, 0.8, 1)
	stream := make([]Request, n)
	for i := range stream {
		flat := pick.Batch(1)[0]
		stream[i] = Request{ObjectID: SweepObjectID(flat/objects, flat%objects), Arrival: arrivals[i]}
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
