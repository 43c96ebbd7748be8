package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// latencyLimitSec is the online-retrieval latency limit: a random
// locate takes up to about 180 s and a cartridge exchange 45 s, so a
// request served within half an hour is served at minutes scale.
const latencyLimitSec = 1800

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passOut is what one pass over a workload's inputs produced.
type passOut struct {
	// requests is the number of simulated requests the pass completed
	// (the numerator of sim_reqs_per_s).
	requests int
	// digest hashes every simulated output of the pass; repeated
	// passes over the same seed must reproduce it exactly.
	digest uint64
	// e2e holds the virtual-time end-to-end metrics and layer the
	// per-layer metrics read off the pass's outputs.
	e2e, layer map[string]metric
	// notes are sample counts and other context for the human report.
	notes []string
}

// bench is one benchmark workload. Every method runs on the
// calling goroutine.
type bench interface {
	// setup builds the system under test from scratch: cartridges,
	// locate models, catalogs, fleet directory.
	setup() error
	// pass runs the workload once over the seed's inputs. With a
	// non-nil tracer the calls into each layer are wrapped; without
	// one the layers are called directly.
	pass(tr *tracer) (passOut, error)
	// extras measures the per-layer figures that need isolated or
	// paired runs; passNs is the median untraced pass time in
	// reference nanoseconds.
	extras(ref passOut, passNs float64) (map[string]metric, error)
}

// run is one benchmark invocation's outcome.
type run struct {
	e2e, layer map[string]metric
	attempted  int64
	notes      []string
}

// setupReps is how many times set-up is repeated; setup_s is the
// median.
const setupReps = 5

// minTimedPasses bounds the timed phase from below, so the median and
// the repeated-digest check always have material.
const minTimedPasses = 3

// measure runs w for the given host seconds. traced selects the
// per-layer run: half the time untraced, half traced, then extras.
func measure(w bench, seconds float64, traced bool, spansPath string) (run, error) {
	var r run
	setups := make([]float64, 0, setupReps)
	mt := newMeter()
	for i := 0; i < setupReps; i++ {
		// Collecting before each set-up and before the reference pass
		// keeps earlier set-ups' garbage out of the memory peak.
		runtime.GC()
		sec, err := mt.measure(w.setup)
		if err != nil {
			return r, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, sec)
	}
	// The reference pass fills lazy caches (the drive emulator's
	// per-cartridge truth models) and gives the virtual-time metrics
	// and the digest every later pass must reproduce.
	runtime.GC()
	ref, err := w.pass(nil)
	if err != nil {
		return r, err
	}
	// Peak RSS is read here, after set-up and one pass over the
	// inputs: a fixed amount of work, where the peak over the whole
	// timed phase would depend on how many passes fit and where the
	// collector happened to run.
	refRSS := peakRSSMB()
	r.attempted += int64(ref.requests)
	var last passOut
	// timed runs passes for budget wall seconds and returns each pass's
	// time in reference seconds.
	timed := func(budget float64, tr *tracer) ([]float64, error) {
		var passSec []float64
		start := time.Now()
		for len(passSec) < minTimedPasses || time.Since(start).Seconds() < budget {
			var out passOut
			// Every pass starts from a collected heap, so passes and
			// runs see the same collector state.
			runtime.GC()
			sec, err := mt.measure(func() (err error) {
				out, err = w.pass(tr)
				return err
			})
			if err != nil {
				return nil, err
			}
			passSec = append(passSec, sec)
			r.attempted += int64(out.requests)
			last = out
			if out.digest != ref.digest || out.requests != ref.requests {
				return nil, fmt.Errorf("check: pass %d digest %016x (%d requests) differs from the reference %016x (%d requests)",
					len(passSec), out.digest, out.requests, ref.digest, ref.requests)
			}
		}
		return passSec, nil
	}
	rate := func(passSec []float64) float64 { return float64(ref.requests) / median(passSec) }

	if !traced {
		r.notes = append(r.notes, ref.notes...)
		passSec, err := timed(seconds, nil)
		if err != nil {
			return r, err
		}
		r.e2e = map[string]metric{
			"sim_reqs_per_s": {rate(passSec), "1/s"},
			"setup_s":        {median(setups), "s"},
			"peak_rss_mb":    {refRSS, "MB"},
		}
		for k, v := range ref.e2e {
			r.e2e[k] = v
		}
		r.notes = append(r.notes, fmt.Sprintf("timed passes %d, %d requests each, reference ms per pass: %s", len(passSec), ref.requests, msList(passSec)))
		return r, nil
	}

	plain, err := timed(seconds/2, nil)
	if err != nil {
		return r, err
	}
	tr := newTracer(1 << 17)
	tracedSec, err := timed(seconds/2, tr)
	if err != nil {
		return r, err
	}
	r.notes = append(r.notes, last.notes...)
	r.layer = tracerMetrics(tr, len(tracedSec))
	for k, v := range ref.layer {
		r.layer[k] = v
	}
	extra, err := w.extras(ref, median(plain)*1e9)
	if err != nil {
		return r, err
	}
	for k, v := range extra {
		r.layer[k] = v
	}
	r.layer["trace_overhead_frac"] = metric{1 - rate(tracedSec)/rate(plain), "frac"}
	r.notes = append(r.notes, fmt.Sprintf("untraced passes %d, traced passes %d, spans in %s", len(plain), len(tracedSec), spansPath))
	if err := tr.writeSpans(spansPath); err != nil {
		return r, fmt.Errorf("writing spans: %w", err)
	}
	return r, nil
}

// tracerMetrics turns the traced passes' span aggregates into
// per-pass layer metrics.
func tracerMetrics(tr *tracer, passes int) map[string]metric {
	st := &tr.stats
	per := func(ns int64) float64 { return float64(ns) / 1e9 / float64(passes) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	evals := float64(st[kLocateEval].calls)
	locBusy := st[kLocateEval].busy + st[kLocateMatrix].busy
	sched := float64(st[kCoreSchedule].calls)
	m := map[string]metric{
		"locate.evals":                {evals / float64(passes), "count"},
		"locate.busy_s":               {per(locBusy), "s"},
		"locate.ns_per_eval":          {ratio(float64(locBusy), evals), "ns"},
		"core.schedules":              {sched / float64(passes), "count"},
		"core.reqs_per_schedule":      {ratio(float64(tr.scheduled), sched), "count"},
		"core.busy_s":                 {per(st[kCoreSchedule].busy), "s"},
		"core.self_s":                 {per(st[kCoreSchedule].self), "s"},
		"core.schedule_ms_p50":        {percentile(tr.scheduleNs, 50) / 1e6, "ms"},
		"core.schedule_ms_p99":        {percentile(tr.scheduleNs, 99) / 1e6, "ms"},
		"sim.busy_s":                  {per(st[kSimExecute].busy), "s"},
		"tertiary.busy_s":             {per(st[kTertiaryRun].busy), "s"},
		"tertiary.self_s":             {per(st[kTertiaryRun].self), "s"},
		"fleet.route_calls":           {float64(st[kFleetRoute].calls) / float64(passes), "count"},
		"fleet.route_ns_per_call":     {ratio(float64(st[kFleetRoute].busy), float64(st[kFleetRoute].calls)), "ns"},
		"obs.slo_ingest_ns_per_event": {ratio(float64(st[kObsSLO].busy), float64(tr.sloEvents)), "ns"},
	}
	return m
}

// Host time is measured as process CPU time (user plus system, every
// thread), in units of a calibration round. On a shared machine the
// wall clock also counts the time the simulator waited for a CPU, and
// even CPU time drifts with what the neighbours do to the shared
// caches and clock speed: one pass took 25% more CPU time in one run
// than in another. A fixed, repository-independent calibration round
// run beside each measurement drifts with it, so the ratio is steady.
// A meter brackets every measurement between two rounds and divides
// by their mean; the result is in reference seconds, one round
// counting as calRefSec.

// calRefSec is what one calibration round counts for; it is close to
// the round's CPU time on the 2-vCPU Xeon host the bounds were set on,
// so reference seconds read close to CPU seconds there.
const calRefSec = 0.25

// A calibration round has two halves: a dependent walk over a 16 MB
// random cycle, which misses the caches the way the simulator's maps
// and heaps do, and row-minimum scans over a 512 KB matrix, the
// branchy floating-point work of the schedulers' cost matrices.
const (
	calSteps = 1 << 20
	calScans = 1200
)

var (
	calCycle  []uint32
	calMatrix []float64
	calSink   float64
)

func init() {
	const n = 1 << 22
	calCycle = make([]uint32, n)
	for i := range calCycle {
		calCycle[i] = uint32(i)
	}
	// Sattolo's algorithm: one cycle through every slot.
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		calCycle[i], calCycle[j] = calCycle[j], calCycle[i]
	}
	calMatrix = make([]float64, 256*256)
	for i := range calMatrix {
		calMatrix[i] = float64(next()%1000003) / 7
	}
}

// calRound runs one calibration round and returns its CPU time.
func calRound() int64 {
	c0 := cpuNs()
	p := uint32(0)
	var h uint64
	for i := 0; i < calSteps; i++ {
		p = calCycle[p]
		h = h*31 + uint64(p)
	}
	sum := float64(h % 7)
	for r := 0; r < calScans; r++ {
		for i := 0; i < 256; i++ {
			row := calMatrix[i*256 : (i+1)*256]
			best, at := row[0], 0
			for j, v := range row {
				if v < best {
					best, at = v, j
				}
			}
			sum += best + float64(at)
		}
	}
	calSink = sum
	return cpuNs() - c0
}

// meter measures work in reference seconds.
type meter struct{ lastCal int64 }

func newMeter() *meter { return &meter{lastCal: calRound()} }

// measure runs f and returns its CPU time over the mean of the
// calibration rounds before and after it, in reference seconds.
func (m *meter) measure(f func() error) (float64, error) {
	c0 := cpuNs()
	err := f()
	ns := cpuNs() - c0
	after := calRound()
	sec := float64(ns) / (float64(m.lastCal+after) / 2) * calRefSec
	m.lastCal = after
	return sec, err
}

// cpuNs is the process's CPU time in nanoseconds.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linearly interpolated p-th percentile of xs, 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// digest accumulates simulated outputs into a 64-bit FNV-1a hash.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// ladder summarizes an open-loop rate ladder: per rung, whether the
// latency limit and the backlog condition hold.
type rung struct {
	ratePerHour float64
	// arrivals are the offered requests' arrival times, sorted;
	// finished the terminal times of every request that reached one
	// (served, failed, rejected or shed).
	arrivals, finished []float64
	// sojourns are the served requests' arrival-to-done latencies.
	sojourns []float64
}

// p99OK reports whether the rung meets the latency limit at p99.
func (r rung) p99OK() bool {
	return len(r.sojourns) > 0 && percentile(r.sojourns, 99) <= latencyLimitSec
}

// backlogStable reports whether the backlog (arrived minus finished)
// at the rung's last arrival is no larger than at its middle arrival
// plus slack, which is one batch per drive.
func (r rung) backlogStable(slack int) bool {
	fin := append([]float64(nil), r.finished...)
	sort.Float64s(fin)
	backlog := func(i int) int {
		t := r.arrivals[i]
		arrived := sort.Search(len(r.arrivals), func(j int) bool { return r.arrivals[j] > t })
		done := sort.Search(len(fin), func(j int) bool { return fin[j] > t })
		return arrived - done
	}
	n := len(r.arrivals)
	return backlog(n-1) <= backlog(n/2)+slack
}

// maxRate is the highest rung meeting both conditions, 0 if none.
func maxRate(rungs []rung, slack int) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.p99OK() && r.backlogStable(slack) && r.ratePerHour > best {
			best = r.ratePerHour
		}
	}
	return best
}

// sojournMetrics reports the nominal rung's latency figures: the
// median, p99 and the share of offered requests served within the
// latency limit.
func sojournMetrics(nominal rung) (map[string]metric, string) {
	met := 0
	for _, s := range nominal.sojourns {
		if s <= latencyLimitSec {
			met++
		}
	}
	m := map[string]metric{
		"sojourn_p50_s": {percentile(nominal.sojourns, 50), "s"},
		"sojourn_p99_s": {percentile(nominal.sojourns, 99), "s"},
		"slo_met_frac":  {float64(met) / float64(len(nominal.arrivals)), "frac"},
	}
	note := fmt.Sprintf("nominal rung %g/h: %d offered, %d sojourn samples (%d beyond p99)",
		nominal.ratePerHour, len(nominal.arrivals), len(nominal.sojourns), len(nominal.sojourns)/100)
	return m, note
}

// ladderNotes renders each rung's p99 and backlog verdict.
func ladderNotes(rungs []rung, slack int) string {
	var b strings.Builder
	b.WriteString("ladder:")
	for _, r := range rungs {
		fmt.Fprintf(&b, " %g/h p99=%.0fs stable=%v;", r.ratePerHour, percentile(r.sojourns, 99), r.backlogStable(slack))
	}
	return b.String()
}

// pairedDelta measures what configuration b costs over a on the same
// inputs, where both must produce identical simulated outputs. It
// alternates the two reps times, which side runs first alternating
// too, checks every output against a's first with reflect.DeepEqual
// outside the timed region, and returns the median extra CPU
// nanoseconds per request of b over a. Alternating pairs cancel the
// host's slow drift, so no calibration rounds are needed here.
func pairedDelta(reps, requests int, a, b func() (any, error)) (float64, error) {
	var want any
	var ta, tb []float64
	timeOne := func(f func() (any, error), dst *[]float64) error {
		c0 := cpuNs()
		out, err := f()
		*dst = append(*dst, float64(cpuNs()-c0))
		if err != nil {
			return err
		}
		if want == nil {
			want = out
		} else if !reflect.DeepEqual(out, want) {
			return fmt.Errorf("check: layer delta compares configurations whose outputs differ")
		}
		return nil
	}
	for i := 0; i < reps; i++ {
		first, second := a, b
		fd, sd := &ta, &tb
		if i%2 == 1 {
			first, second, fd, sd = b, a, &tb, &ta
		}
		if err := timeOne(first, fd); err != nil {
			return 0, err
		}
		if err := timeOne(second, sd); err != nil {
			return 0, err
		}
	}
	return (median(tb) - median(ta)) / float64(requests), nil
}

// msList renders nanosecond durations as milliseconds.
func msList(secs []float64) string {
	var b strings.Builder
	for i, v := range secs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", v*1e3)
	}
	return b.String()
}
