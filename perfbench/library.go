package main

import (
	"fmt"

	"serpentine/internal/core"
	"serpentine/internal/geometry"
	"serpentine/internal/tertiary"
)

// The library workload's store and serving shape: the tertiary sweeps'
// SweepStore (512 objects of 32 segments on each of 4 cartridges, Zipf
// 0.8 popularity), 2 drives, batch limit 16, Auto scheduling.
const (
	libTapes      = 4
	libObjects    = 512
	libSegments   = 32
	libDrives     = 2
	libBatchLimit = 16
)

// libraryRates is the fixed Poisson rate ladder (requests per virtual
// hour), spanning the knee; libraryNominal indexes the rung whose
// latency is reported. libraryRequests is the stream length per rung.
var (
	libraryRates    = []float64{60, 90, 110, 150, 180, 240}
	libraryNominal  = 1
	libraryRequests = 20000
)

// library is one tertiary library served open loop in virtual time:
// no faults, no cache, no fleet, no event ring.
type library struct {
	seed    int64
	base    *tertiary.Library
	streams [][]tertiary.Request
}

func newLibrary(seed int64) *library { return &library{seed: seed} }

// rungSeed derives one rung's stream seed from the workload seed.
func rungSeed(seed int64, rung int) int64 { return seed*1000003 + int64(rung)*8191 + 7 }

func (w *library) setup() error {
	base, err := tertiary.SweepStore(geometry.DLT4000(), libTapes, libObjects, libSegments, 0, 0)
	if err != nil {
		return err
	}
	w.base = base
	if w.streams == nil {
		for ri, rate := range libraryRates {
			s, err := tertiary.SweepStream(rate, libraryRequests, rungSeed(w.seed, ri), libTapes, libObjects)
			if err != nil {
				return err
			}
			w.streams = append(w.streams, s)
		}
	}
	return nil
}

// clone opens one run's library on the shared store.
func (w *library) clone(sched core.Scheduler) *tertiary.Library {
	return w.base.Clone(tertiary.Config{
		Profile:    geometry.DLT4000(),
		Tapes:      w.base.Tapes(),
		Drives:     libDrives,
		BatchLimit: libBatchLimit,
		Scheduler:  sched,
	})
}

func (w *library) pass(tr *tracer) (passOut, error) {
	var out passOut
	var sched core.Scheduler
	if tr != nil {
		sched = &tracedScheduler{inner: core.NewAuto(), tr: tr}
	}
	dg := newDigest()
	var rungs []rung
	var served, offered, mounts, retries, replans int
	var busySec float64
	for ri, stream := range w.streams {
		lib := w.clone(sched)
		tr.begin(kTertiaryRun, int64(ri))
		comps, m, err := lib.Run(stream)
		tr.end()
		if err != nil {
			return out, fmt.Errorf("rung %g/h: %w", libraryRates[ri], err)
		}
		if err := checkLibraryRun(len(stream), comps, m); err != nil {
			return out, fmt.Errorf("check: rung %g/h: %w", libraryRates[ri], err)
		}
		r := rung{ratePerHour: libraryRates[ri]}
		for _, q := range stream {
			r.arrivals = append(r.arrivals, q.Arrival)
		}
		for _, c := range comps {
			r.finished = append(r.finished, c.Done)
			r.sojourns = append(r.sojourns, c.Latency())
			dg.str(c.ObjectID)
			dg.float(c.Done)
			dg.int(int64(c.DriveID))
		}
		digestMetrics(dg, m)
		rungs = append(rungs, r)
		offered += len(stream)
		served += m.Served
		busySec += m.DriveBusySec
		mounts += m.Mounts
		retries += m.Retries
		replans += m.Replans
		if ri == libraryNominal {
			out.layer = tertiaryLayer(m, comps, libDrives)
		}
	}
	slack := libDrives * libBatchLimit
	soj, note := sojournMetrics(rungs[libraryNominal])
	out.requests = offered
	out.digest = dg.sum()
	out.e2e = map[string]metric{
		"served_frac":      {float64(served) / float64(offered), "frac"},
		"retrievals_per_h": {float64(served) / busySec * 3600, "1/h"},
		"max_rate_per_h":   {maxRate(rungs, slack), "1/h"},
	}
	for k, v := range soj {
		out.e2e[k] = v
	}
	out.layer["sim.retries"] = metric{float64(retries), "count"}
	out.layer["sim.replans"] = metric{float64(replans), "count"}
	out.layer["drive.constructions"] = metric{float64(mounts), "count"}
	out.notes = []string{note, ladderNotes(rungs, slack)}
	return out, nil
}

func (w *library) extras(ref passOut, passNs float64) (map[string]metric, error) {
	tapes, err := generateTapes(libTapes)
	if err != nil {
		return nil, err
	}
	return driveLayer(tapes, ref, passNs), nil
}

// generateTapes builds the store's cartridges (serials 3000+t) afresh,
// for timing drive loads on them in isolation.
func generateTapes(n int) ([]*geometry.Tape, error) {
	var tapes []*geometry.Tape
	for t := 0; t < n; t++ {
		tape, err := geometry.Generate(geometry.DLT4000(), int64(3000+t))
		if err != nil {
			return nil, err
		}
		tapes = append(tapes, tape)
	}
	return tapes, nil
}

// checkLibraryRun checks outcome conservation and that every
// completion's latency attribution telescopes to its sojourn.
func checkLibraryRun(offered int, comps []tertiary.Completion, m tertiary.Metrics) error {
	if got := m.Served + m.Failed + m.Rejected + m.Shed; got != offered {
		return fmt.Errorf("served %d + failed %d + rejected %d + shed %d = %d, offered %d",
			m.Served, m.Failed, m.Rejected, m.Shed, got, offered)
	}
	return checkAttribution(comps)
}

func checkAttribution(comps []tertiary.Completion) error {
	for _, c := range comps {
		if e := c.AttributionError(); !(e <= 1e-9) {
			return fmt.Errorf("completion of %s at %g: attribution error %g > 1e-9", c.ObjectID, c.Done, e)
		}
	}
	return nil
}

func digestMetrics(dg digest, m tertiary.Metrics) {
	for _, v := range []int{m.Served, m.Failed, m.Rejected, m.Shed, m.Rescued, m.ReplicaReads, m.Mounts, m.Batches, m.Retries, m.Replans} {
		dg.int(int64(v))
	}
	for _, v := range []float64{m.Makespan, m.DriveBusySec, m.RobotWaitSec, m.MeanLatency} {
		dg.float(v)
	}
}

// tertiaryLayer reads the library layer's per-rung figures off one
// run's metrics and completions.
func tertiaryLayer(m tertiary.Metrics, comps []tertiary.Completion, drivesTotal int) map[string]metric {
	var queue []float64
	for _, c := range comps {
		queue = append(queue, c.Attribution.QueueSec)
	}
	perMount, util := 0.0, 0.0
	if m.Mounts > 0 {
		perMount = float64(m.Served) / float64(m.Mounts)
	}
	if m.Makespan > 0 {
		util = m.DriveBusySec / (float64(drivesTotal) * m.Makespan)
	}
	return map[string]metric{
		"tertiary.mounts":           {float64(m.Mounts), "count"},
		"tertiary.reqs_per_mount":   {perMount, "count"},
		"tertiary.robot_wait_s":     {m.RobotWaitSec, "s"},
		"tertiary.queue_wait_p99_s": {percentile(queue, 99), "s"},
		"tertiary.drive_util":       {util, "frac"},
		"tertiary.max_queue_depth":  {float64(m.MaxQueueDepth), "count"},
		"tertiary.failed":           {float64(m.Failed), "count"},
		"tertiary.rescued":          {float64(m.Rescued), "count"},
	}
}
