package sim

import (
	"fmt"
	"io"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/locate"
	"serpentine/internal/stats"
	"serpentine/internal/workload"
)

// ValidationConfig describes a schedule-execution validation run
// (the paper's Section 6 / Figure 8, and with a mismatched model,
// Section 7 / Figure 9): schedules are generated and estimated with
// the host Model, then executed on the emulated Drive, and the
// percent error between estimate and measurement is reported.
type ValidationConfig struct {
	// Drive executes the schedules ("measured" times). Its head
	// position carries over between trials, as on real hardware.
	Drive *drive.Drive
	// Model generates and estimates the schedules. Build it from the
	// executing tape's key points for Figure 8, or from a different
	// tape's key points for Figure 9.
	Model locate.Cost
	// Scheduler defaults to LOSS, as in the paper.
	Scheduler core.Scheduler
	// Lengths defaults to PaperLengths.
	Lengths []int
	// Trials is the number of request sets per length; the paper
	// uses 4. 0 selects 4.
	Trials int
	// Seed seeds request generation.
	Seed int64
	// ReadLen is the per-request transfer length in segments; 0
	// means 1.
	ReadLen int
}

// ValidationPoint is one schedule's estimate-versus-measurement
// comparison.
type ValidationPoint struct {
	N         int
	Trial     int
	Estimated float64
	Measured  float64
}

// PctError is the paper's metric: estimate less measurement, divided
// by measurement, in percent.
func (v ValidationPoint) PctError() float64 {
	return (v.Estimated - v.Measured) / v.Measured * 100
}

// Validate runs the experiment and returns one point per (length,
// trial).
func Validate(cfg ValidationConfig) ([]ValidationPoint, error) {
	if cfg.Drive == nil || cfg.Model == nil {
		return nil, fmt.Errorf("sim: Validate needs both a drive and a model")
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewLOSS()
	}
	lengths := cfg.Lengths
	if lengths == nil {
		lengths = PaperLengths
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 4
	}
	total := cfg.Drive.Tape().Segments()
	if m := cfg.Model.Segments(); m < total {
		total = m
	}

	var points []ValidationPoint
	for _, n := range lengths {
		for trial := 0; trial < trials; trial++ {
			reqs := workload.NewUniform(total, trialSeed(cfg.Seed, n, trial)).Batch(n)
			p := &core.Problem{
				Start:    cfg.Drive.Position(),
				Requests: reqs,
				ReadLen:  cfg.ReadLen,
				Cost:     cfg.Model,
			}
			plan, err := sched.Schedule(p)
			if err != nil {
				return nil, fmt.Errorf("sim: validate %s at n=%d: %w", sched.Name(), n, err)
			}
			est := plan.Estimate(p).Total()
			var meas float64
			if plan.WholeTape {
				meas, err = cfg.Drive.ReadEntireTape()
			} else {
				meas, err = cfg.Drive.ExecuteOrder(plan.Order, cfg.ReadLen)
			}
			if err != nil {
				return nil, fmt.Errorf("sim: executing schedule at n=%d: %w", n, err)
			}
			points = append(points, ValidationPoint{N: n, Trial: trial, Estimated: est, Measured: meas})
		}
	}
	return points, nil
}

// WriteValidation prints per-length mean and worst percent errors.
func WriteValidation(w io.Writer, points []ValidationPoint) error {
	if _, err := fmt.Fprintf(w, "# schedule estimate vs measured execution\n%8s %7s %12s %12s %10s %10s\n",
		"N", "trials", "est mean s", "meas mean s", "mean err%", "worst err%"); err != nil {
		return err
	}
	byN := make(map[int][]ValidationPoint)
	var order []int
	for _, p := range points {
		if _, ok := byN[p.N]; !ok {
			order = append(order, p.N)
		}
		byN[p.N] = append(byN[p.N], p)
	}
	for _, n := range order {
		var est, meas, errAcc stats.Accumulator
		worst := 0.0
		for _, p := range byN[n] {
			est.Add(p.Estimated)
			meas.Add(p.Measured)
			e := p.PctError()
			errAcc.Add(e)
			if abs(e) > abs(worst) {
				worst = e
			}
		}
		if _, err := fmt.Fprintf(w, "%8d %7d %12.1f %12.1f %10.3f %10.3f\n",
			n, est.N(), est.Mean(), meas.Mean(), errAcc.Mean(), worst); err != nil {
			return err
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// PerturbConfig describes the Figure 10 sensitivity study: schedules
// are generated with a systematically perturbed locate model (+E
// seconds to even destinations, -E to odd) and their quality is
// measured under the true model, against the schedule the true model
// would have produced.
type PerturbConfig struct {
	// Model is the true cost model.
	Model locate.Cost
	// Scheduler defaults to LOSS.
	Scheduler core.Scheduler
	// Errors are the injected magnitudes; nil selects the paper's
	// {1, 2, 3, 5, 10} seconds.
	Errors []float64
	// Lengths defaults to PaperLengths.
	Lengths []int
	// Trials per length; nil selects ScaledTrials(500, 8).
	Trials func(int) int
	// Start selects the head-position scenario; the paper's Figure
	// 10 uses the beginning of tape.
	Start StartMode
	// Seed seeds request generation.
	Seed int64
}

// PerturbPoint is the mean execution-time increase at one (length,
// error) cell.
type PerturbPoint struct {
	N           int
	E           float64
	MeanPctIncr float64
	Trials      int
}

// PerturbStudy runs the Figure 10 experiment.
func PerturbStudy(cfg PerturbConfig) ([]PerturbPoint, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: PerturbStudy needs a model")
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewLOSS()
	}
	errorsE := cfg.Errors
	if errorsE == nil {
		errorsE = []float64{1, 2, 3, 5, 10}
	}
	lengths := cfg.Lengths
	if lengths == nil {
		lengths = PaperLengths
	}
	trials := cfg.Trials
	if trials == nil {
		trials = ScaledTrials(500, 8)
	}
	total := cfg.Model.Segments()

	var points []PerturbPoint
	for _, n := range lengths {
		accs := make([]stats.Accumulator, len(errorsE))
		nt := trials(n)
		for trial := 0; trial < nt; trial++ {
			set := workload.NewUniform(total, trialSeed(cfg.Seed, n, trial)).Batch(n + 1)
			start := set[0]
			if cfg.Start == BOTStart {
				start = 0
			}
			reqs := set[1:]

			truth := &core.Problem{Start: start, Requests: reqs, Cost: cfg.Model}
			basePlan, err := sched.Schedule(truth)
			if err != nil {
				return nil, fmt.Errorf("sim: perturb baseline at n=%d: %w", n, err)
			}
			base := basePlan.Estimate(truth).Total()

			for i, e := range errorsE {
				perturbed := &core.Problem{
					Start:    start,
					Requests: reqs,
					Cost:     &locate.Perturbed{Base: cfg.Model, E: e},
				}
				plan, err := sched.Schedule(perturbed)
				if err != nil {
					return nil, fmt.Errorf("sim: perturb E=%g at n=%d: %w", e, n, err)
				}
				// The perturbed model chose the order; the true
				// model says what it really costs.
				got := plan.Estimate(truth).Total()
				accs[i].Add((got - base) / base * 100)
			}
		}
		for i, e := range errorsE {
			points = append(points, PerturbPoint{N: n, E: e, MeanPctIncr: accs[i].Mean(), Trials: nt})
		}
	}
	return points, nil
}

// WritePerturb prints the Figure 10 matrix: rows are schedule
// lengths, one column per injected error magnitude.
func WritePerturb(w io.Writer, points []PerturbPoint) error {
	var lengths []int
	var errorsE []float64
	cells := make(map[int]map[float64]float64)
	for _, p := range points {
		if cells[p.N] == nil {
			lengths = append(lengths, p.N)
			cells[p.N] = make(map[float64]float64)
		}
		if _, ok := cells[p.N][p.E]; !ok {
			cells[p.N][p.E] = p.MeanPctIncr
		}
	}
	for _, p := range points {
		found := false
		for _, e := range errorsE {
			if e == p.E {
				found = true
				break
			}
		}
		if !found {
			errorsE = append(errorsE, p.E)
		}
	}
	if _, err := fmt.Fprintf(w, "# mean %% execution-time increase, perturbed locate model\n%8s", "N"); err != nil {
		return err
	}
	for _, e := range errorsE {
		if _, err := fmt.Fprintf(w, "  LOSS-%-5.0f", e); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, n := range lengths {
		if _, err := fmt.Fprintf(w, "%8d", n); err != nil {
			return err
		}
		for _, e := range errorsE {
			if _, err := fmt.Fprintf(w, " %10.3f", cells[n][e]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// AccuracyResult summarizes a raw locate-time accuracy test (the
// paper's Section 3: 3000 locates on the model-development tape gave
// 7 errors over 2 seconds; 1000 on a different tape gave 24).
type AccuracyResult struct {
	Locates    int
	Over2s     int
	MeanAbsErr float64
	MaxAbsErr  float64
}

// LocateAccuracy executes random locates on the drive and compares
// each measured time with the model's estimate.
func LocateAccuracy(d *drive.Drive, model locate.Cost, locates int, seed int64) (AccuracyResult, error) {
	total := d.Tape().Segments()
	if m := model.Segments(); m < total {
		total = m
	}
	gen := workload.NewUniform(total, seed)
	res := AccuracyResult{Locates: locates}
	var sumAbs float64
	for i := 0; i < locates; i++ {
		pair := gen.Batch(2)
		src, dst := pair[0], pair[1]
		if _, err := d.Locate(src); err != nil {
			return res, err
		}
		meas, err := d.Locate(dst)
		if err != nil {
			return res, err
		}
		est := model.LocateTime(src, dst)
		e := abs(meas - est)
		sumAbs += e
		if e > res.MaxAbsErr {
			res.MaxAbsErr = e
		}
		if e > 2 {
			res.Over2s++
		}
	}
	res.MeanAbsErr = sumAbs / float64(locates)
	return res, nil
}
