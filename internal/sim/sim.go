// Package sim drives the paper's model-driven simulation experiments
// (Section 5, Figure 3): generate many random request sets, schedule
// each with every algorithm, estimate the schedule execution times
// with the locate model, and report means and standard deviations per
// schedule length — the data behind Figures 4, 5 and 6 — plus the
// utilization study of Figure 7 and the Section 8 summary rates.
package sim

import (
	"fmt"
	"io"
	"sort"
	"time"

	"serpentine/internal/core"
	"serpentine/internal/grid"
	"serpentine/internal/locate"
	"serpentine/internal/stats"
	"serpentine/internal/workload"
)

// StartMode selects the initial head position scenario of the
// experiments.
type StartMode int

const (
	// RandomStart models a tape scheduled repeatedly in batches: the
	// head starts wherever the previous batch left it, drawn
	// uniformly (Figure 4).
	RandomStart StartMode = iota
	// BOTStart models a robot that has just loaded the tape: the
	// head starts at segment 0 (Figure 5).
	BOTStart
)

// String names the mode.
func (m StartMode) String() string {
	if m == BOTStart {
		return "beginning-of-tape"
	}
	return "random"
}

// PaperLengths is the schedule-length grid of the paper's Figure 3
// pseudocode.
var PaperLengths = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64, 96, 128,
	192, 256, 384, 512, 768, 1024, 1536, 2048,
}

// PaperTrials returns the paper's trial count for schedule length n:
// 100,000 up to 192, then 25,000, 12,000, 7,000, 3,000, 1,600, 800
// and 400 for the larger sizes.
func PaperTrials(n int) int {
	switch {
	case n <= 192:
		return 100000
	case n <= 256:
		return 25000
	case n <= 384:
		return 12000
	case n <= 512:
		return 7000
	case n <= 768:
		return 3000
	case n <= 1024:
		return 1600
	case n <= 1536:
		return 800
	default:
		return 400
	}
}

// ScaledTrials returns a trial function dividing the paper's counts
// by divisor (at least floor trials each). The default experiment
// binaries use divisor 500 so a full figure regenerates in seconds;
// pass 1 to match the paper exactly.
func ScaledTrials(divisor, floor int) func(int) int {
	if divisor < 1 {
		divisor = 1
	}
	if floor < 1 {
		floor = 1
	}
	return func(n int) int {
		t := PaperTrials(n) / divisor
		if t < floor {
			t = floor
		}
		return t
	}
}

// Config describes one simulation experiment.
type Config struct {
	// Model is the cost model schedules are generated and estimated
	// against.
	Model locate.Cost
	// Schedulers are the algorithms to compare.
	Schedulers []core.Scheduler
	// Lengths is the schedule-length grid; nil selects PaperLengths.
	Lengths []int
	// Trials returns the trial count per schedule length; nil
	// selects ScaledTrials(500, 8).
	Trials func(n int) int
	// OptMax caps the lengths handed to the exponential OPT
	// scheduler; 0 selects 12, as in the paper.
	OptMax int
	// Start selects the initial head position scenario.
	Start StartMode
	// Seed seeds the request generation; experiments repeated with
	// different seeds vary by well under 1% (the paper reports
	// <0.5% over 5 seeds).
	Seed int64
	// Workers bounds the parallel trial runners; 0 selects
	// GOMAXPROCS. Use 1 for clean CPU timing (Figure 6). The results
	// are bit-identical at any worker count.
	Workers int
	// Verify re-checks that every schedule is a permutation of its
	// requests (slower; used by tests).
	Verify bool
}

// AlgResult accumulates one algorithm's outcomes at one schedule
// length.
type AlgResult struct {
	// Total accumulates estimated schedule execution times (s).
	Total stats.Accumulator
	// PerLocate accumulates estimated time per locate (s).
	PerLocate stats.Accumulator
	// CPU is the total wall time spent generating schedules.
	CPU time.Duration
	// Schedules is the number of schedules generated.
	Schedules int
}

// CPUPerSchedule is the Figure 6 metric.
func (a *AlgResult) CPUPerSchedule() time.Duration {
	if a.Schedules == 0 {
		return 0
	}
	return a.CPU / time.Duration(a.Schedules)
}

// LengthResult holds all algorithms' outcomes at one schedule length.
type LengthResult struct {
	N   int
	Alg map[string]*AlgResult
}

// Result is a completed experiment.
type Result struct {
	Config  Config
	Lengths []LengthResult
	Elapsed time.Duration
}

// Run executes the experiment of Figure 3.
func Run(cfg Config) (*Result, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: Config.Model is nil")
	}
	if len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("sim: no schedulers configured")
	}
	lengths := cfg.Lengths
	if lengths == nil {
		lengths = PaperLengths
	}
	trials := cfg.Trials
	if trials == nil {
		trials = ScaledTrials(500, 8)
	}
	optMax := cfg.OptMax
	if optMax == 0 {
		optMax = 12
	}
	begin := time.Now()
	res := &Result{Config: cfg}
	for _, n := range lengths {
		lr, err := runLength(cfg, n, trials(n), optMax)
		if err != nil {
			return nil, err
		}
		res.Lengths = append(res.Lengths, lr)
	}
	res.Elapsed = time.Since(begin)
	return res, nil
}

// trialBlock is the trial count of one grid cell of runLength. It is a
// constant, never derived from the worker count, so the blocks and the
// order they merge in are the same however many workers run them. At 4,
// the 8 trials the scaled Figure 4 runs at its longest lengths still
// split over two workers.
const trialBlock = 4

// runLength runs all trials at one schedule length on grid.Run, in
// blocks of trialBlock consecutive trials. Each block keeps one Problem
// across its trials and reduces them into its own per-algorithm
// partials; the blocks then merge in index order, so the result is
// bit-identical at any worker count.
func runLength(cfg Config, n, trials, optMax int) (LengthResult, error) {
	// The schedulers active at this length, in configuration order;
	// block partials index this slice directly instead of hashing
	// names per trial.
	active := make([]core.Scheduler, 0, len(cfg.Schedulers))
	lr := LengthResult{N: n, Alg: make(map[string]*AlgResult)}
	for _, s := range cfg.Schedulers {
		if skipAtLength(s, n, optMax) {
			continue
		}
		active = append(active, s)
		lr.Alg[s.Name()] = &AlgResult{}
	}

	blocks := max(0, trials+trialBlock-1) / trialBlock
	parts := make([]AlgResult, blocks*len(active))
	err := grid.Run(cfg.Workers, blocks, func(b int) error {
		local := parts[b*len(active) : (b+1)*len(active)]
		// Only Start and Requests change per trial and scheduler.
		p := &core.Problem{Cost: cfg.Model}
		for trial := b * trialBlock; trial < min((b+1)*trialBlock, trials); trial++ {
			if err := runTrial(cfg, n, trial, active, local, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return lr, err
	}
	for b := 0; b < blocks; b++ {
		for i, s := range active {
			src, dst := &parts[b*len(active)+i], lr.Alg[s.Name()]
			dst.Total.Merge(&src.Total)
			dst.PerLocate.Merge(&src.PerLocate)
			dst.CPU += src.CPU
			dst.Schedules += src.Schedules
		}
	}
	return lr, nil
}

// trialSeed derives the request-set seed of one (length, trial) pair:
// distinct and deterministic per pair, so the experiment is
// reproducible regardless of worker count. Run and the validation
// experiments draw the same request sets from it.
func trialSeed(base int64, n, trial int) int64 {
	return base*1000003 + int64(n)*1000003607 + int64(trial)
}

// skipAtLength reports whether scheduler s is excluded at schedule
// length n (only the exponential OPT is, beyond optMax, as in the
// paper).
func skipAtLength(s core.Scheduler, n, optMax int) bool {
	_, isOpt := s.(core.OPT)
	return isOpt && n > optMax
}

// runTrial generates one request set and runs every active scheduler
// on it, reusing the block's Problem and accumulating into its
// partials. The t0/cpu stopwatch brackets only the Schedule call, so
// the Figure 6 CPU-per-schedule metric excludes request generation,
// verification and estimation.
func runTrial(cfg Config, n, trial int, active []core.Scheduler, local []AlgResult, p *core.Problem) error {
	g := workload.NewUniform(cfg.Model.Segments(), trialSeed(cfg.Seed, n, trial))
	set := g.Batch(n + 1)
	start := set[0]
	if cfg.Start == BOTStart {
		start = 0
	}
	p.Start = start
	p.Requests = set[1:]

	for i, s := range active {
		t0 := time.Now()
		plan, err := s.Schedule(p)
		cpu := time.Since(t0)
		if err != nil {
			return fmt.Errorf("sim: %s at n=%d: %w", s.Name(), n, err)
		}
		if cfg.Verify {
			if err := core.CheckPermutation(p.Requests, plan.Order); err != nil {
				return fmt.Errorf("sim: %s at n=%d: %w", s.Name(), n, err)
			}
		}
		est := plan.Estimate(p)
		a := &local[i]
		a.Total.Add(est.Total())
		a.PerLocate.Add(est.Total() / float64(n))
		a.CPU += cpu
		a.Schedules++
	}
	return nil
}

// AlgNames returns the algorithm names present in the result, in the
// configured scheduler order.
func (r *Result) AlgNames() []string {
	var names []string
	seen := make(map[string]bool)
	for _, s := range r.Config.Schedulers {
		if !seen[s.Name()] {
			names = append(names, s.Name())
			seen[s.Name()] = true
		}
	}
	return names
}

// WritePerLocateTable prints the Figure 4/5 data: mean estimated time
// per locate (s) per algorithm and schedule length.
func (r *Result) WritePerLocateTable(w io.Writer) error {
	return r.writeTable(w, "mean s/locate", func(a *AlgResult) (float64, bool) {
		return a.PerLocate.Mean(), a.Schedules > 0
	})
}

// WriteStdDevTable prints the standard deviation of the total
// schedule execution time (s).
func (r *Result) WriteStdDevTable(w io.Writer) error {
	return r.writeTable(w, "stddev total s", func(a *AlgResult) (float64, bool) {
		return a.Total.StdDev(), a.Schedules > 1
	})
}

// WriteCPUTable prints the Figure 6 data: mean seconds of CPU time to
// generate one schedule.
func (r *Result) WriteCPUTable(w io.Writer) error {
	return r.writeTable(w, "CPU s/schedule", func(a *AlgResult) (float64, bool) {
		return a.CPUPerSchedule().Seconds(), a.Schedules > 0
	})
}

func (r *Result) writeTable(w io.Writer, title string, metric func(*AlgResult) (float64, bool)) error {
	names := r.AlgNames()
	if _, err := fmt.Fprintf(w, "# %s, start=%s\n", title, r.Config.Start); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s", "N"); err != nil {
		return err
	}
	for _, name := range names {
		if _, err := fmt.Fprintf(w, " %12s", name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, lr := range r.Lengths {
		if _, err := fmt.Fprintf(w, "%8d", lr.N); err != nil {
			return err
		}
		for _, name := range names {
			a := lr.Alg[name]
			if a == nil {
				if _, err := fmt.Fprintf(w, " %12s", "-"); err != nil {
					return err
				}
				continue
			}
			v, ok := metric(a)
			if !ok {
				if _, err := fmt.Fprintf(w, " %12s", "-"); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, " %12.4f", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// MeanPerLocate returns the mean per-locate time of one algorithm at
// one length, or false if absent.
func (r *Result) MeanPerLocate(alg string, n int) (float64, bool) {
	i := sort.Search(len(r.Lengths), func(i int) bool { return r.Lengths[i].N >= n })
	if i == len(r.Lengths) || r.Lengths[i].N != n {
		return 0, false
	}
	a := r.Lengths[i].Alg[alg]
	if a == nil || a.Schedules == 0 {
		return 0, false
	}
	return a.PerLocate.Mean(), true
}
