package server

import (
	"fmt"
	"io"
	"math"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/grid"
	"serpentine/internal/obs"
	"serpentine/internal/stats"
	"serpentine/internal/workload"
)

// ChaosConfig describes a chaos experiment: the paper's first
// scenario — one tape scheduled over and over in batches, each batch
// starting where the last one left the head — executed on the
// emulated drive under an increasing fault rate, for every scheduler,
// measuring how throughput and tail latency degrade and how much
// recovery work each policy induces.
type ChaosConfig struct {
	// Serial selects the cartridge; 0 selects 1.
	Serial int64
	// Schedulers to compare; nil selects core.All(12), the paper's
	// eight. Schedulers that cannot run at the batch size (OPT beyond
	// 12 requests) are skipped, as in the paper.
	Schedulers []core.Scheduler
	// Rates are multipliers applied to the Base fault mix, one sweep
	// column each; nil selects {0, 0.5, 1, 2, 4}. Rate 0 is the
	// fault-free baseline.
	Rates []float64
	// Base is the fault mix at multiplier 1; a zero value selects
	// fault.Default. Its Seed is ignored: each cell derives its own
	// injector seed from Seed and the cell coordinates, so results do
	// not depend on sweep order or worker count.
	Base fault.Config
	// BatchSize, Batches and Warmup shape each cell's chained run;
	// zero values select 96, 12 and 2. Warmup batches run but are
	// excluded from the statistics (the first batch starts at the
	// beginning of tape) and must leave at least one measured batch.
	BatchSize, Batches, Warmup int
	// ReadLen is the per-request transfer length; 0 means 1.
	// BatchSize, Batches, Warmup and ReadLen must not be negative.
	ReadLen int
	// Seed seeds request generation (shared by every cell, so all
	// cells schedule the same request stream) and the per-cell
	// injector seeds.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives per-cell outcome and recovery
	// metrics labeled by (alg, rate), recorded in spec order after the
	// parallel phase so the dump is identical at any worker count.
	Reg *obs.Registry
}

// ChaosCell is one (scheduler, fault rate) outcome.
type ChaosCell struct {
	Alg  string
	Rate float64
	// Window sums the measured (post-warmup) batches' cuts, in order.
	Window Cut
	// Completions holds every served request's completion offset from
	// its batch start in the measured batches, for tail-latency
	// percentiles.
	Completions []float64
}

// IOsPerHour is the steady-state retrieval rate over *completed*
// retrievals. It is guarded against degenerate inputs: an empty
// measurement window, an all-failed run, or a non-finite total yields
// 0 rather than NaN or Inf.
func (c ChaosCell) IOsPerHour() float64 {
	done := c.Window.Size - c.Window.Failed
	if done <= 0 || !(c.Window.DurationSec > 0) || math.IsInf(c.Window.DurationSec, 0) {
		return 0
	}
	return float64(done) / c.Window.DurationSec * 3600
}

// P99CompletionSec is the 99th-percentile per-request completion time
// of the measured batches, or 0 when nothing completed.
func (c ChaosCell) P99CompletionSec() float64 {
	return stats.PercentileOrZero(c.Completions, 99)
}

// Resolved returns cfg with every zero field that selects a default
// replaced by that default: the experiment ChaosSweep runs. A report
// of the sweep's shape (batch size, measured batches, fault mix) reads
// it, not the raw configuration.
func (cfg ChaosConfig) Resolved() ChaosConfig {
	if cfg.Serial == 0 {
		cfg.Serial = 1
	}
	if cfg.Schedulers == nil {
		cfg.Schedulers = core.All(12)
	}
	if cfg.Rates == nil {
		cfg.Rates = []float64{0, 0.5, 1, 2, 4}
	}
	if !cfg.Base.Enabled() {
		cfg.Base = fault.Default(0)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 96
	}
	if cfg.Batches == 0 {
		cfg.Batches = 12
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 2
	}
	if cfg.ReadLen == 0 {
		cfg.ReadLen = 1
	}
	return cfg
}

// ChaosSweep runs every (scheduler, rate) cell of the experiment. A
// cell is one Run of the chained stream: Batches × BatchSize requests,
// all arriving at time zero, served by the quiesce policy in cuts of
// BatchSize. Cells run concurrently up to cfg.Workers, but each cell
// is fully deterministic — its drive, injector seed and request
// stream depend only on the config and the cell's coordinates — so
// the sweep's output is identical at any worker count.
func ChaosSweep(cfg ChaosConfig) ([]ChaosCell, error) {
	switch {
	case cfg.BatchSize < 0:
		return nil, fmt.Errorf("server: chaos batch size %d", cfg.BatchSize)
	case cfg.Batches < 0:
		return nil, fmt.Errorf("server: chaos batch count %d", cfg.Batches)
	case cfg.Warmup < 0:
		return nil, fmt.Errorf("server: chaos warmup %d", cfg.Warmup)
	case cfg.ReadLen < 0:
		return nil, fmt.Errorf("server: chaos read length %d", cfg.ReadLen)
	}
	cfg = cfg.Resolved()
	serial, scheds, rates, base := cfg.Serial, cfg.Schedulers, cfg.Rates, cfg.Base
	batch, batches, warmup, readLen := cfg.BatchSize, cfg.Batches, cfg.Warmup, cfg.ReadLen
	if warmup >= batches {
		return nil, fmt.Errorf("server: chaos warmup %d leaves none of %d batches measured", warmup, batches)
	}

	cart, err := cartridgeFor(serial)
	if err != nil {
		return nil, err
	}
	// One stream for every cell, drawn batch by batch (each batch's
	// segments distinct) over the starts a readLen-segment read fits.
	starts := cart.model.Segments() - readLen + 1
	if starts < batch {
		return nil, fmt.Errorf("server: chaos %d-segment reads leave %d starts for %d-request batches", readLen, starts, batch)
	}
	gen := workload.NewUniform(starts, cfg.Seed)
	stream := make([]Request, 0, batches*batch)
	for range batches {
		for _, seg := range gen.Batch(batch) {
			stream = append(stream, Request{ID: len(stream), Segment: seg})
		}
	}

	type cellSpec struct {
		sched   core.Scheduler
		algIdx  int
		rateIdx int
	}
	var specs []cellSpec
	for si, s := range scheds {
		if _, isOpt := s.(core.OPT); isOpt && batch > 12 {
			continue
		}
		for ri := range rates {
			specs = append(specs, cellSpec{sched: s, algIdx: si, rateIdx: ri})
		}
	}
	cells := make([]ChaosCell, len(specs))
	err = grid.Run(cfg.Workers, len(specs), func(i int) error {
		sp := specs[i]
		faults := base.Scale(rates[sp.rateIdx])
		// One injector seed per cell coordinate: stable under
		// sweep-order and worker-count changes.
		faults.Seed = grid.Seed(cfg.Seed, sp.algIdx, 0, sp.rateIdx)
		res, err := Run(Config{
			Serial:    serial,
			Scheduler: sp.sched,
			Policy:    QuiesceThenReplan,
			QueueCap:  len(stream),
			MaxBatch:  batch,
			ReadLen:   readLen,
			Faults:    faults,
		}, stream)
		if err != nil {
			return fmt.Errorf("server: chaos %s rate %g: %w", sp.sched.Name(), rates[sp.rateIdx], err)
		}
		// Every request arrived at t=0, so the run cut exactly batches
		// cuts of batch requests each.
		c := ChaosCell{Alg: sp.sched.Name(), Rate: rates[sp.rateIdx]}
		warm := 0
		for _, cut := range res.Cuts[:warmup] {
			warm += cut.Served
		}
		for _, cut := range res.Cuts[warmup:] {
			c.Window = c.Window.Add(cut)
		}
		c.Completions = res.ServiceTimes[warm:]
		cells[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Record in spec order so the dump is independent of which worker
	// ran which cell.
	for _, c := range cells {
		ls := []obs.Label{obs.L("alg", c.Alg), obs.L("rate", fmt.Sprintf("%g", c.Rate))}
		w := c.Window
		cfg.Reg.Counter("served_total", ls...).Add(int64(w.Served))
		cfg.Reg.Counter("failed_total", ls...).Add(int64(w.Failed))
		cfg.Reg.Counter("retries_total", ls...).Add(int64(w.Retries))
		cfg.Reg.Counter("replans_total", ls...).Add(int64(w.Replans))
		cfg.Reg.Counter("recalibrations_total", ls...).Add(int64(w.Recalibrations))
		cfg.Reg.Counter("fallbacks_total", ls...).Add(int64(w.Fallbacks))
		cfg.Reg.Gauge("recovery_seconds", ls...).Set(w.RecoverySec)
		h := cfg.Reg.Histogram("completion_seconds", ls...)
		for _, v := range c.Completions {
			h.Observe(v)
		}
	}
	return cells, nil
}

// WriteChaos prints the sweep: one block per fault-rate multiplier,
// one row per scheduler, with throughput, tail latency and recovery
// counters.
func WriteChaos(w io.Writer, cells []ChaosCell) error {
	for _, block := range grid.Blocks(cells, func(c ChaosCell) float64 { return c.Rate }) {
		if _, err := fmt.Fprintf(w, "# fault rate x%g\n%-8s %8s %9s %8s %8s %7s %7s %7s %9s\n",
			block[0].Rate, "alg", "IO/h", "p99 s", "served", "failed", "retry", "replan", "recal", "recov%"); err != nil {
			return err
		}
		for _, c := range block {
			r := c.Window
			recovPct := 0.0
			if r.DurationSec > 0 {
				recovPct = r.RecoverySec / r.DurationSec * 100
			}
			if _, err := fmt.Fprintf(w, "%-8s %8.1f %9.1f %8d %8d %7d %7d %7d %9.2f\n",
				c.Alg, c.IOsPerHour(), c.P99CompletionSec(), r.Served, r.Failed,
				r.Retries, r.Replans, r.Recalibrations, recovPct); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
