package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/sim"
	"serpentine/internal/workload"
)

// paperLengths and paperTrials are the closed loop's batch lengths and
// how many batches of each one pass draws. Trial counts fall with
// length so that each length takes a comparable share of the host time
// (LOSS costs grow faster than quadratically), and no length swamps
// the pass.
var (
	paperLengths = []int{10, 20, 40, 96, 192, 384, 768, 1536}
	paperTrials  = []int{800, 2000, 500, 100, 30, 8, 2, 1}
)

// paperSerial is the cartridge the paper-batch workload reads.
const paperSerial = 3000

// paperBatch is the paper's Fig. 4/6 offline experiment run as a
// closed loop: each batch of uniformly random segments is scheduled by
// the Auto policy and executed on the emulated drive, and the next
// batch starts where the head stopped.
type paperBatch struct {
	seed  int64
	tape  *geometry.Tape
	model *locate.Model
	// batches are the pass's request sets, drawn once from the seed
	// and run in order of length; lengthOf[i] indexes paperLengths for
	// batch i.
	batches  [][]int
	lengthOf []int
}

func newPaperBatch(seed int64) *paperBatch { return &paperBatch{seed: seed} }

func (w *paperBatch) setup() error {
	tape, err := geometry.Generate(geometry.DLT4000(), paperSerial)
	if err != nil {
		return err
	}
	model, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		return err
	}
	// Loading the cartridge builds the emulator's truth model for it.
	driveSink = drive.New(tape)
	w.tape, w.model = tape, model
	if w.batches == nil {
		gen := workload.NewUniform(model.Segments(), w.seed)
		for li, n := range paperLengths {
			for t := 0; t < paperTrials[li]; t++ {
				w.batches = append(w.batches, gen.Batch(n))
				w.lengthOf = append(w.lengthOf, li)
			}
		}
	}
	return nil
}

func (w *paperBatch) pass(tr *tracer) (passOut, error) {
	var out passOut
	// One emulated drive per cartridge, reused across the pass's
	// batches; each pass loads a fresh one so every pass replays the
	// same drive state.
	tr.begin(kDriveNew, 0)
	dev := drive.New(w.tape)
	tr.end()
	var sched core.Scheduler = core.NewAuto()
	if tr != nil {
		sched = &tracedScheduler{inner: sched, tr: tr}
	}
	ex := &sim.Executor{Drive: dev, Scheduler: sched}
	dg := newDigest()

	nl := len(paperLengths)
	served := make([]int, nl)
	elapsed := make([]float64, nl)
	sojourns := make([][]float64, nl)
	hostNs := make([]float64, nl) // traced passes only
	var all []float64
	var estErr float64
	var retries, replans, offered int
	for i, reqs := range w.batches {
		li := w.lengthOf[i]
		p := &core.Problem{Start: dev.Position(), Requests: reqs, Cost: w.model}
		plan, err := sched.Schedule(p)
		if err != nil {
			return out, fmt.Errorf("batch %d (n=%d): %w", i, len(reqs), err)
		}
		if tr != nil {
			hostNs[li] += tr.scheduleNs[len(tr.scheduleNs)-1]
		}
		if err := core.CheckPermutation(reqs, plan.Order); err != nil {
			return out, fmt.Errorf("check: batch %d (n=%d): %w", i, len(reqs), err)
		}
		est := plan.Estimate(p).Total()
		tr.begin(kSimExecute, int64(i))
		er, err := ex.Execute(p, plan)
		hostNs[li] += float64(tr.end())
		if err != nil {
			return out, fmt.Errorf("executing batch %d (n=%d): %w", i, len(reqs), err)
		}
		offered += len(reqs)
		served[li] += len(er.Served)
		elapsed[li] += er.ElapsedSec
		sojourns[li] = append(sojourns[li], er.Completions...)
		all = append(all, er.Completions...)
		estErr += math.Abs(er.ElapsedSec-est) / er.ElapsedSec
		retries += er.Retries
		replans += er.Replans
		dg.int(int64(len(plan.Order)))
		for _, s := range plan.Order {
			dg.int(int64(s))
		}
		dg.float(er.ElapsedSec)
		for _, c := range er.Completions {
			dg.float(c)
		}
	}

	var servedAll int
	var elapsedAll, maxRate float64
	var b strings.Builder
	b.WriteString("per length (n: retrievals/h, p99 sojourn s")
	if tr != nil {
		b.WriteString(", traced host ms")
	}
	b.WriteString("):")
	for li, n := range paperLengths {
		servedAll += served[li]
		elapsedAll += elapsed[li]
		rate := float64(served[li]) / elapsed[li] * 3600
		p99 := percentile(sojourns[li], 99)
		// The closed loop's load ladder is the batch length: the
		// highest rate meeting the latency limit is that of the
		// longest batch whose p99 sojourn stays within it.
		if p99 <= latencyLimitSec && rate > maxRate {
			maxRate = rate
		}
		fmt.Fprintf(&b, " %d: %.1f, %.0f", n, rate, p99)
		if tr != nil {
			fmt.Fprintf(&b, ", %.0f", hostNs[li]/1e6)
		}
		b.WriteByte(';')
	}
	met := 0
	for _, s := range all {
		if s <= latencyLimitSec {
			met++
		}
	}
	out.requests = offered
	out.digest = dg.sum()
	out.e2e = map[string]metric{
		"served_frac":      {float64(servedAll) / float64(offered), "frac"},
		"retrievals_per_h": {float64(servedAll) / elapsedAll * 3600, "1/h"},
		"sojourn_p50_s":    {percentile(all, 50), "s"},
		"sojourn_p99_s":    {percentile(all, 99), "s"},
		"slo_met_frac":     {float64(met) / float64(offered), "frac"},
		"max_rate_per_h":   {maxRate, "1/h"},
	}
	out.layer = map[string]metric{
		"locate.est_error_frac": {estErr / float64(len(w.batches)), "frac"},
		"sim.retries":           {float64(retries), "count"},
		"sim.replans":           {float64(replans), "count"},
		"drive.constructions":   {1, "count"},
	}
	out.notes = []string{
		fmt.Sprintf("%d batches, %d requests, %d sojourn samples (%d beyond p99)", len(w.batches), offered, len(all), len(all)/100),
		b.String(),
	}
	return out, nil
}

func (w *paperBatch) extras(ref passOut, passNs float64) (map[string]metric, error) {
	return driveLayer([]*geometry.Tape{w.tape}, ref, passNs), nil
}

// driveLayer reports drive.New's cost per load, timed alone on the
// workload's cartridges, and its share of the untraced pass time given
// the pass's constructions.
func driveLayer(tapes []*geometry.Tape, ref passOut, passNs float64) map[string]metric {
	us := driveNewUS(tapes)
	return map[string]metric{
		"drive.new_us":    {us, "us"},
		"drive.new_share": {us * 1e3 * ref.layer["drive.constructions"].Value / passNs, "frac"},
	}
}

// driveNewUS times drive.New in isolation on the given cartridges,
// after one warm-up load each (the emulator caches each cartridge's
// truth model), and returns the median microseconds per load.
func driveNewUS(tapes []*geometry.Tape) float64 {
	for _, t := range tapes {
		driveSink = drive.New(t)
	}
	var samples []float64
	for r := 0; r < 200; r++ {
		t0 := time.Now()
		for _, t := range tapes {
			driveSink = drive.New(t)
		}
		samples = append(samples, float64(time.Since(t0))/1e3/float64(len(tapes)))
	}
	return median(samples)
}

// driveSink keeps the timed loads from being optimized away.
var driveSink *drive.Drive
