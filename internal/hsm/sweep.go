package hsm

import (
	"fmt"
	"io"
	"strconv"

	"serpentine/internal/geometry"
	"serpentine/internal/grid"
	"serpentine/internal/obs"
	"serpentine/internal/stats"
	"serpentine/internal/tertiary"
)

// SweepConfig describes the staging-tier experiment: the library
// sweeps' synthetic store served through a disk cache at every
// (arrival rate, cache size, eviction policy) cell. The axes expose
// the hierarchy's trade-off directly — hit rate bought per cache byte,
// against the sojourn time the tape path charges for every miss.
type SweepConfig struct {
	// TapeCount, Objects and ObjectSegments shape the store exactly as
	// in tertiary.SweepConfig (defaults 4, 512, 32), on DLT4000
	// cartridges.
	TapeCount      int
	Objects        int
	ObjectSegments int
	// RatesPerHour are the Poisson arrival rates to sweep; nil
	// selects {60, 120, 240}.
	RatesPerHour []float64
	// CacheBytes are the staging capacities to sweep; nil selects
	// {0, 64 MiB, 256 MiB}. Size 0 is the no-cache baseline — one cell
	// per rate, bit-identical to the bare library sweep.
	CacheBytes []int64
	// Policies are the eviction policies (NewPolicy names) applied to
	// every non-zero cache size; nil selects {"lru"}.
	Policies []string
	// Drives is the transport pool size; 0 selects 2. BatchLimit caps
	// requests served per mount; 0 selects 16.
	Drives     int
	BatchLimit int
	// Prefetch extends each miss's fetch into its coalesced run (see
	// Config).
	Prefetch bool
	// Requests is the stream length per cell; 0 selects 400.
	Requests int
	// Seed seeds each cell's arrival stream and object picks. The
	// per-cell derivation depends only on the rate index — matching
	// tertiary.Sweep's positions with single-element inner axes — so
	// every cache size and policy at one rate replays the same
	// workload, and the size-0 cells align with the bare library
	// sweep's for the equivalence tests.
	Seed int64
	// Workers bounds concurrent cells; 0 selects GOMAXPROCS.
	Workers int
	// Reg, when non-nil, receives every cell's metrics, merged in spec
	// order after the parallel phase.
	Reg *obs.Registry
	// SpanCap, when positive, gives every cell its own span tracer of
	// that capacity and returns the recorded spans and completions on
	// the Cell.
	SpanCap int
}

// Cell is one (rate, cache size, policy) outcome.
type Cell struct {
	RatePerHour float64
	CacheBytes  int64
	// Policy is the eviction policy name, "off" for the size-0
	// baseline.
	Policy  string
	Metrics Metrics
	// MeanSojourn, P99Sojourn and MaxSojourn summarize response times
	// over all completions — cache hits and tape fetches together.
	MeanSojourn float64
	P99Sojourn  float64
	MaxSojourn  float64
	// Spans holds the cell's recorded spans when SweepConfig.SpanCap
	// was set; Completions the merged served requests in completion
	// order.
	Spans       []obs.Span
	Completions []tertiary.Completion
}

// Sweep runs every cell of the staging-tier experiment. Cells run
// concurrently up to cfg.Workers, sharing the read-only store, but
// each cell is fully deterministic — its stream and seeds depend only
// on the config and the cell coordinates — so the sweep's output is
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
	sizes := cfg.CacheBytes
	if sizes == nil {
		sizes = []int64{0, 64 << 20, 256 << 20}
	}
	policies := cfg.Policies
	if policies == nil {
		policies = []string{"lru"}
	}
	for _, p := range policies {
		if _, err := NewPolicy(p); err != nil {
			return nil, err
		}
	}
	drives := cfg.Drives
	if drives <= 0 {
		drives = 2
	}
	limit := cfg.BatchLimit
	if limit == 0 {
		limit = 16
	}
	n := cfg.Requests
	if n <= 0 {
		n = 400
	}
	profile := geometry.DLT4000()
	base, err := tertiary.SweepStore(profile, tapeCount, objects, objSegs, 0, 0)
	if err != nil {
		return nil, err
	}
	serials := base.Tapes()

	// The size-0 baseline is policy-independent: one spec per rate,
	// not one per policy.
	type cellSpec struct {
		rateIdx int
		size    int64
		policy  string
	}
	var specs []cellSpec
	for ri := range rates {
		for _, size := range sizes {
			if size == 0 {
				specs = append(specs, cellSpec{ri, 0, "off"})
				continue
			}
			for _, pol := range policies {
				specs = append(specs, cellSpec{ri, size, pol})
			}
		}
	}
	cells := make([]Cell, len(specs))
	err = grid.Capture{Reg: cfg.Reg, SpanCap: cfg.SpanCap}.Sweep(cfg.Workers, len(specs), func(i int, p grid.Probes) error {
		sp := specs[i]
		rate := rates[sp.rateIdx]
		// One seed per rate, in tertiary.Sweep's index positions with
		// the size and policy axes excluded: every cache size and
		// policy replays the same workload, and the size-0 cells share
		// streams with the bare library sweep.
		seed := grid.Seed(cfg.Seed, sp.rateIdx, 0, 0)
		stream, err := tertiary.SweepStream(rate, n, seed, tapeCount, objects)
		if err != nil {
			return fmt.Errorf("hsm: sweep arrivals %g/h: %w", rate, err)
		}
		labels := []obs.Label{
			obs.L("rate", fmt.Sprintf("%g", rate)),
			obs.L("drives", strconv.Itoa(drives)),
			obs.L("batch", strconv.Itoa(limit)),
		}
		if sp.size > 0 {
			labels = append(labels,
				obs.L("cache", strconv.FormatInt(sp.size, 10)),
				obs.L("policy", sp.policy))
		}
		lib := base.Clone(tertiary.Config{
			Profile:    profile,
			Tapes:      serials,
			Drives:     drives,
			BatchLimit: limit,
			Reg:        p.Reg,
			SpanTrace:  p.Spans.StartTrace(),
			Labels:     labels,
		})
		var tierCfg Config
		if sp.size > 0 {
			tierCfg = Config{
				CapacityBytes: sp.size,
				Policy:        sp.policy,
				Prefetch:      cfg.Prefetch,
			}
		}
		tier, err := NewTier(lib, tierCfg)
		if err != nil {
			return fmt.Errorf("hsm: sweep cell %g/h %s %s: %w", rate, sizeLabel(sp.size), sp.policy, err)
		}
		comps, m, err := tier.Run(stream)
		if err != nil {
			return fmt.Errorf("hsm: sweep cell %g/h %s %s: %w", rate, sizeLabel(sp.size), sp.policy, err)
		}
		cell := Cell{RatePerHour: rate, CacheBytes: sp.size, Policy: sp.policy, Metrics: m}
		lats := make([]float64, len(comps))
		var sum float64
		for j, c := range comps {
			lats[j] = c.Latency()
			sum += lats[j]
			if lats[j] > cell.MaxSojourn {
				cell.MaxSojourn = lats[j]
			}
		}
		if len(lats) > 0 {
			cell.MeanSojourn = sum / float64(len(lats))
		}
		cell.P99Sojourn = stats.PercentileOrZero(lats, 99)
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

// sizeLabel renders a cache capacity for tables: "off" for 0,
// mebibytes otherwise.
func sizeLabel(bytes int64) string {
	if bytes == 0 {
		return "off"
	}
	return fmt.Sprintf("%gMB", float64(bytes)/(1<<20))
}

// WriteCache prints the sweep: one block per arrival rate, one row
// per (cache size, policy), with hit rate, sojourn percentiles,
// delivered throughput and the tape path's exchange work.
func WriteCache(w io.Writer, cells []Cell) error {
	for _, block := range grid.Blocks(cells, func(c Cell) float64 { return c.RatePerHour }) {
		if _, err := fmt.Fprintf(w, "# arrival rate %g/h\n%8s %-6s %6s %6s %8s %12s %11s %11s %8s %7s\n",
			block[0].RatePerHour, "cache", "policy", "served", "hit%", "IO/h", "mean soj (s)", "p99 soj (s)", "max soj (s)", "mounts", "evicts"); err != nil {
			return err
		}
		for _, c := range block {
			m := c.Metrics
			ioPerHour := 0.0
			if m.Makespan > 0 {
				ioPerHour = float64(m.Served()) / m.Makespan * 3600
			}
			if _, err := fmt.Fprintf(w, "%8s %-6s %6d %6.1f %8.1f %12.1f %11.1f %11.1f %8d %7d\n",
				sizeLabel(c.CacheBytes), c.Policy, m.Served(), m.HitRate()*100, ioPerHour,
				c.MeanSojourn, c.P99Sojourn, c.MaxSojourn, m.Lib.Mounts, m.Evictions); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
