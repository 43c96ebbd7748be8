// Package server is the online serving layer: the paper's scheduling
// algorithms put behind an arrival stream. Requests arrive on the
// virtual clock (Poisson or trace-driven), pass a bounded admission
// queue, are cut into batches by a configurable batching policy, and
// execute on the emulated drive through the recovering executor —
// re-scheduled incrementally from the current head position, so any
// of LOSS/SLTF/SCAN/WEAVE serves an open-ended stream rather than a
// closed trial.
//
// Everything runs on the virtual clock: the drive charges busy time,
// the server account idles between arrivals and window boundaries,
// and a request's sojourn is completion time minus arrival time. A
// run is a pure function of its configuration — no wall clock, no
// global state — which is what lets the arrival-rate sweeps promise
// byte-identical output at any worker count.
package server

import (
	"fmt"
	"math"
	"sync"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
	"serpentine/internal/sim"
	"serpentine/internal/stats"
)

// cartridges caches the generated tape and its characterized locate
// model per serial. Both are pure functions of the serial (the server
// always uses the DLT4000 format), immutable, and shared safely
// across runs — while the sweeps spin up hundreds of runs that would
// otherwise regenerate the same multi-megabyte tables per cell.
var cartridges sync.Map // int64 -> *cartridge

type cartridge struct {
	tape  *geometry.Tape
	model *locate.Model
}

func cartridgeFor(serial int64) (*cartridge, error) {
	if c, ok := cartridges.Load(serial); ok {
		return c.(*cartridge), nil
	}
	tape, err := geometry.Generate(geometry.DLT4000(), serial)
	if err != nil {
		return nil, fmt.Errorf("server: tape: %w", err)
	}
	model, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		return nil, fmt.Errorf("server: model: %w", err)
	}
	c, _ := cartridges.LoadOrStore(serial, &cartridge{tape: tape, model: model})
	return c.(*cartridge), nil
}

// Config describes one online serving run.
type Config struct {
	// Serial selects the cartridge; 0 selects 1.
	Serial int64
	// Scheduler plans each batch; nil selects LOSS.
	Scheduler core.Scheduler
	// Policy selects the batching policy.
	Policy BatchPolicy
	// WindowSec is the FixedWindow period; 0 selects 600.
	WindowSec float64
	// QueueCap bounds the admission queue; 0 selects 1024.
	QueueCap int
	// MaxBatch caps the requests per cut batch; 0 means unbounded.
	MaxBatch int
	// ReadLen is the per-request transfer length; 0 means 1.
	// QueueCap, MaxBatch and ReadLen must not be negative.
	ReadLen int
	// Faults arms the drive with an injector when any rate is
	// non-zero.
	Faults fault.Config
	// Reg receives the run's metrics; nil records none.
	Reg *obs.Registry
	// Labels are added to every metric series the run emits; the
	// sweeps pass the cell coordinates here.
	Labels []obs.Label
	// Spans, when non-nil, records the run's lifecycle as hierarchical
	// virtual-time spans: the run, each batch, each request from
	// arrival to completion with its queue wait, the executor's
	// serve/retry/replan phases, and every drive primitive as a leaf.
	// Tracing is pure accounting and changes no simulated timing.
	Spans *obs.Tracer
}

// Result summarizes one run.
type Result struct {
	// Alg and Policy identify the cell.
	Alg    string
	Policy BatchPolicy

	// Served, Failed and Rejected partition the stream: completed
	// retrievals, permanent drive-level failures, and admissions
	// turned away at a full queue.
	Served, Failed, Rejected int

	// Sojourn accumulates completion − arrival per served request;
	// SojournTimes retains the samples for percentiles.
	Sojourn      stats.Accumulator
	SojournTimes []float64
	// Service accumulates completion − dispatch per served request,
	// where dispatch is the start of the batch execution that served
	// it (for ReplanOnArrival: the start of the request's own
	// single-request execution).
	Service      stats.Accumulator
	ServiceTimes []float64

	// Cuts records every cut batch, in order.
	Cuts []Cut

	// IncrementalReplans counts re-schedules forced by arrivals
	// landing during service (ReplanOnArrival only); Replans totals
	// the executor's own fault-recovery re-plans.
	IncrementalReplans int
	Replans            int

	// MakespanSec is the virtual time from zero to the last
	// completion; BusySec the drive's share of it.
	MakespanSec float64
	BusySec     float64
	// MaxQueueDepth is the admission queue's high-water mark.
	MaxQueueDepth int
}

// Cut is one cut batch: the requests it grew to, how they ended, how
// long its service span took, and the executor's recovery work within
// it. A sum of cuts is itself a Cut.
type Cut struct {
	Size, Served, Failed int
	DurationSec          float64
	// Retries, Replans, Recalibrations and Fallbacks count the
	// executor's recovery actions; RecoverySec is the time they took:
	// failed attempts, backoff waits and recalibrations.
	Retries, Replans, Recalibrations, Fallbacks int
	RecoverySec                                 float64
}

// Add returns the sum of c and d.
func (c Cut) Add(d Cut) Cut {
	c.Size += d.Size
	c.Served += d.Served
	c.Failed += d.Failed
	c.DurationSec += d.DurationSec
	c.Retries += d.Retries
	c.Replans += d.Replans
	c.Recalibrations += d.Recalibrations
	c.Fallbacks += d.Fallbacks
	c.RecoverySec += d.RecoverySec
	return c
}

// SojournP returns the p-th percentile sojourn time, or 0 when
// nothing was served (an idle stream reports NaN-free zeros).
func (r *Result) SojournP(p float64) float64 {
	return stats.PercentileOrZero(r.SojournTimes, p)
}

// ThroughputPerHour is completed retrievals per hour of virtual time,
// 0 for an empty or degenerate run.
func (r *Result) ThroughputPerHour() float64 {
	if r.Served <= 0 || !(r.MakespanSec > 0) || math.IsInf(r.MakespanSec, 0) {
		return 0
	}
	return float64(r.Served) / r.MakespanSec * 3600
}

// state is one run's event loop.
type state struct {
	cfg     Config
	model   locate.Cost
	drv     *drive.Drive
	exec    *sim.Executor
	sched   core.Scheduler
	queue   *AdmissionQueue
	readLen int

	arrivals []Request
	next     int     // next un-admitted arrival
	idle     float64 // accumulated idle time on top of the drive clock

	// Span tracing state: the run's trace, its root span, and the span
	// of the batch currently executing (drive leaf spans nest there).
	trace    *obs.TraceHandle
	root     *obs.SpanHandle
	curBatch *obs.SpanHandle

	// Cached metric handles, resolved lazily so the set of series a
	// run creates is unchanged while the hot path renders no keys.
	cRejected *obs.Counter
	cServed   *obs.Counter
	cFailed   *obs.Counter
	hSojourn  *obs.Histogram
	hService  *obs.Histogram
	hBatchSec *obs.Histogram
	hBatchSz  *obs.Histogram
	opsC      [drive.NumOps]*obs.Counter
	opsH      [drive.NumOps]*obs.Histogram

	cIncRepl *obs.Counter

	// Per-batch scratch, reused across batches so the steady-state
	// loop allocates nothing: the cut batch, the incremental pending
	// set, the drained-arrivals buffer, the segment list handed to the
	// scheduler, the hoisted Problem, and the slot table recordExec
	// uses to map served segments back to requests.
	segsBuf  []int
	batchBuf []Request
	pendBuf  []Request
	freshBuf []Request
	prob     core.Problem
	bySeg    map[int]int32
	slots    [][]Request
	slotHead []int
	oneSeg   [1]int
	onePlan  [1]int
	oneReq   [1]Request

	// cut accumulates the batch being served until recordCut closes it.
	cut Cut
	res Result
}

// now is the server's virtual clock: drive busy time plus accounted
// idle.
func (s *state) now() float64 { return s.drv.Clock() + s.idle }

// idleUntil advances the virtual clock to t by accounting idle time.
func (s *state) idleUntil(t float64) {
	if d := t - s.now(); d > 0 {
		s.idle += d
	}
}

// admit moves every arrival with ArrivalSec <= until into the queue,
// rejecting at capacity. It returns how many were admitted.
func (s *state) admit(until float64) int {
	n := 0
	for s.next < len(s.arrivals) && s.arrivals[s.next].ArrivalSec <= until {
		r := s.arrivals[s.next]
		s.next++
		if s.queue.Offer(r) {
			n++
		} else {
			s.res.Rejected++
			if s.cRejected == nil {
				s.cRejected = s.counter("rejected_total")
			}
			s.cRejected.Inc()
		}
	}
	return n
}

// counter, histogram and gauge resolve a series under the run's
// labels; without a registry they return a nil (no-op) handle before
// building the label set.
func (s *state) counter(name string, extra ...obs.Label) *obs.Counter {
	if s.cfg.Reg == nil {
		return nil
	}
	return s.cfg.Reg.Counter(name, append(extra, s.cfg.Labels...)...)
}

func (s *state) histogram(name string, extra ...obs.Label) *obs.Histogram {
	if s.cfg.Reg == nil {
		return nil
	}
	return s.cfg.Reg.Histogram(name, append(extra, s.cfg.Labels...)...)
}

func (s *state) gauge(name string, extra ...obs.Label) *obs.Gauge {
	if s.cfg.Reg == nil {
		return nil
	}
	return s.cfg.Reg.Gauge(name, append(extra, s.cfg.Labels...)...)
}

// Run serves the arrival stream to completion and returns the run's
// summary. The arrivals must be in non-decreasing time order with
// non-negative times and in-range segments; a malformed stream is an
// error, not a partial run.
func Run(cfg Config, arrivals []Request) (*Result, error) {
	serial := cfg.Serial
	if serial == 0 {
		serial = 1
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewLOSS()
	}
	switch {
	case cfg.QueueCap < 0:
		return nil, fmt.Errorf("server: queue cap %d", cfg.QueueCap)
	case cfg.MaxBatch < 0:
		return nil, fmt.Errorf("server: max batch %d", cfg.MaxBatch)
	case cfg.ReadLen < 0:
		return nil, fmt.Errorf("server: read length %d", cfg.ReadLen)
	}
	readLen := cfg.ReadLen
	if readLen == 0 {
		readLen = 1
	}
	queueCap := cfg.QueueCap
	if queueCap == 0 {
		queueCap = 1024
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = 600
	}
	if cfg.WindowSec < 0 || math.IsNaN(cfg.WindowSec) || math.IsInf(cfg.WindowSec, 0) {
		return nil, fmt.Errorf("server: window of %g seconds", cfg.WindowSec)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("server: faults: %w", err)
	}

	cart, err := cartridgeFor(serial)
	if err != nil {
		return nil, err
	}
	tape, model := cart.tape, cart.model
	last := model.Segments() - readLen
	prev := 0.0
	for i, r := range arrivals {
		if r.Segment < 0 || r.Segment > last {
			return nil, fmt.Errorf("server: arrival %d (segment %d) out of range [0,%d]", i, r.Segment, last)
		}
		if math.IsNaN(r.ArrivalSec) || math.IsInf(r.ArrivalSec, 0) || r.ArrivalSec < prev {
			return nil, fmt.Errorf("server: arrival %d at %g violates time order (previous %g)", i, r.ArrivalSec, prev)
		}
		prev = r.ArrivalSec
	}

	drv := drive.New(tape)
	if cfg.Faults.Enabled() {
		drv.AttachFaults(fault.New(cfg.Faults))
	}

	s := &state{
		cfg:      cfg,
		model:    model,
		drv:      drv,
		exec:     &sim.Executor{Drive: drv, Scheduler: sched},
		sched:    sched,
		queue:    NewAdmissionQueue(queueCap),
		readLen:  readLen,
		arrivals: arrivals,
	}
	s.res.Alg = sched.Name()
	s.res.Policy = cfg.Policy
	if cfg.Spans != nil {
		s.trace = cfg.Spans.StartTrace()
		s.root = s.trace.Start("run", nil, 0).
			Attr("alg", sched.Name()).Attr("policy", cfg.Policy.String())
	}

	// Observability: every drive operation feeds per-op counters and
	// latency histograms, plus a leaf span under the executing batch.
	// The drive's clock excludes accounted idle, so s.idle maps it
	// onto the run's virtual time. With neither a registry nor a
	// trace the drive runs without a hook.
	if s.cfg.Reg != nil || s.trace != nil {
		drv.AttachTrace(s.traceOp)
	}

	if err := s.run(); err != nil {
		return nil, err
	}
	return &s.res, nil
}

// traceOp is the drive's trace hook.
func (s *state) traceOp(ev drive.Event) {
	if s.cfg.Reg != nil {
		c := s.opsC[ev.Op]
		if c == nil {
			c = s.counter("drive_ops_total", obs.L("op", ev.Op.String()))
			s.opsC[ev.Op] = c
		}
		c.Inc()
		h := s.opsH[ev.Op]
		if h == nil {
			h = s.histogram("drive_op_seconds", obs.L("op", ev.Op.String()))
			s.opsH[ev.Op] = h
		}
		h.Observe(ev.ElapsedSec)
		if ev.Err != "" {
			s.counter("drive_errors_total", obs.L("class", ev.Err)).Inc()
		}
	}
	if s.trace != nil {
		sp := s.trace.Start(ev.Op.String(), s.curBatch, ev.ClockSec+s.idle)
		if ev.Segment >= 0 {
			sp.AttrInt("segment", ev.Segment)
		}
		if ev.Err != "" {
			sp.Attr("err", ev.Err)
		}
		sp.End(ev.ClockSec + ev.ElapsedSec + s.idle)
	}
}

// run is the event loop: admit, idle to the next event, cut a batch
// per the policy, serve it, repeat until the stream drains.
func (s *state) run() error {
	for s.next < len(s.arrivals) || s.queue.Len() > 0 {
		s.admit(s.now())
		if s.queue.Len() == 0 {
			// Nothing admitted and nothing queued: idle to the next
			// arrival. (The loop condition guarantees one exists —
			// everything before now() was already admitted.)
			s.idleUntil(s.arrivals[s.next].ArrivalSec)
			s.admit(s.now())
			continue
		}
		if s.cfg.Policy == FixedWindow {
			// Cut at the next multiple of the window (possibly now,
			// when now() is exactly on a boundary). An arrival at
			// exactly the boundary joins this batch.
			boundary := s.cfg.WindowSec * math.Ceil(s.now()/s.cfg.WindowSec)
			s.idleUntil(boundary)
			s.admit(boundary)
		}
		batch := s.queue.PopNAppend(s.batchBuf[:0], s.cfg.MaxBatch)
		s.batchBuf = batch
		var err error
		if s.cfg.Policy == ReplanOnArrival {
			err = s.serveIncremental(batch)
		} else {
			err = s.serveBatch(batch)
		}
		if err != nil {
			return err
		}
	}
	s.res.MakespanSec = s.now()
	s.res.BusySec = s.drv.Clock()
	s.res.MaxQueueDepth = s.queue.MaxDepth()
	s.root.AttrInt("served", s.res.Served).AttrInt("failed", s.res.Failed).
		AttrInt("rejected", s.res.Rejected).End(s.res.MakespanSec)
	s.gauge("queue_depth_max").Max(float64(s.queue.MaxDepth()))
	s.gauge("clock_seconds").Set(s.res.MakespanSec)
	s.gauge("busy_seconds").Set(s.res.BusySec)
	return nil
}

// serveBatch plans and executes one batch as a unit (QuiesceThenReplan
// and FixedWindow).
func (s *state) serveBatch(batch []Request) error {
	if len(batch) == 0 {
		return nil
	}
	segs := s.segsBuf[:0]
	for _, r := range batch {
		segs = append(segs, r.Segment)
	}
	s.segsBuf = segs
	s.prob = core.Problem{Start: s.drv.Position(), Requests: segs, ReadLen: s.readLen, Cost: s.model}
	plan, err := s.sched.Schedule(&s.prob)
	if err != nil {
		return fmt.Errorf("server: scheduling batch of %d: %w", len(batch), err)
	}
	dispatch := s.now()
	s.curBatch = s.trace.Start("batch", s.root, dispatch).
		AttrInt("size", len(batch)).Attr("mode", "batch")
	s.exec.Trace = s.trace
	s.exec.Parent = s.curBatch
	s.exec.TraceBase = s.idle
	er, err := s.exec.Execute(&s.prob, plan)
	if err != nil {
		return fmt.Errorf("server: executing batch of %d: %w", len(batch), err)
	}
	s.recordExec(batch, &er, dispatch)
	s.recordCut(len(batch), er.ElapsedSec)
	s.curBatch.End(s.now())
	s.curBatch = nil
	return nil
}

// serveIncremental serves a batch one request at a time off the
// current plan, re-scheduling the remainder from the current head
// whenever arrivals landed during the last service (and after any
// recalibration disturbed the head position).
func (s *state) serveIncremental(batch []Request) error {
	pending := append(s.pendBuf[:0], batch...)
	order, err := s.planOrder(pending)
	if err != nil {
		return err
	}
	cutStart := s.now()
	s.curBatch = s.trace.Start("batch", s.root, cutStart).Attr("mode", "incremental")
	size := len(batch)
	for len(pending) > 0 {
		seg := order[0]
		order = order[1:]
		idx := indexOfSegment(pending, seg)
		if idx < 0 {
			return fmt.Errorf("server: plan serves segment %d not in the pending set", seg)
		}
		req := pending[idx]
		pending = append(pending[:idx], pending[idx+1:]...)

		s.oneSeg[0], s.onePlan[0] = seg, seg
		s.prob = core.Problem{Start: s.drv.Position(), Requests: s.oneSeg[:], ReadLen: s.readLen, Cost: s.model}
		dispatch := s.now()
		s.exec.Trace = s.trace
		s.exec.Parent = s.curBatch
		s.exec.TraceBase = s.idle
		er, err := s.exec.Execute(&s.prob, core.Plan{Order: s.onePlan[:]})
		if err != nil {
			return fmt.Errorf("server: executing request %d: %w", req.ID, err)
		}
		s.oneReq[0] = req
		s.recordExec(s.oneReq[:], &er, dispatch)

		// Admit what arrived while the drive was busy; new work (or a
		// recovery that moved the head) invalidates the remaining
		// order, so re-plan from the current position.
		merged := 0
		if s.admit(s.now()) > 0 {
			fresh := s.queue.PopNAppend(s.freshBuf[:0], 0)
			s.freshBuf = fresh
			merged = len(fresh)
			size += merged
			pending = append(pending, fresh...)
		}
		if len(pending) == 0 {
			continue
		}
		if merged > 0 || er.Recalibrations > 0 || len(order) == 0 {
			if merged > 0 {
				s.res.IncrementalReplans++
				if s.cIncRepl == nil {
					s.cIncRepl = s.counter("incremental_replans_total")
				}
				s.cIncRepl.Inc()
			}
			if order, err = s.planOrder(pending); err != nil {
				return err
			}
		}
	}
	s.pendBuf = pending
	s.recordCut(size, s.now()-cutStart)
	s.curBatch.AttrInt("size", size).End(s.now())
	s.curBatch = nil
	return nil
}

// recordCut closes the cut batch recordExec accumulated: how many
// requests it grew to and how long its service span took.
func (s *state) recordCut(size int, elapsed float64) {
	s.cut.Size, s.cut.DurationSec = size, elapsed
	s.res.Cuts = append(s.res.Cuts, s.cut)
	s.cut = Cut{}
	if s.hBatchSec == nil {
		s.hBatchSec = s.histogram("batch_seconds")
		s.hBatchSz = s.histogram("batch_size")
	}
	s.hBatchSec.Observe(elapsed)
	s.hBatchSz.Observe(float64(size))
}

// planOrder schedules the pending requests from the current head.
func (s *state) planOrder(pending []Request) ([]int, error) {
	segs := s.segsBuf[:0]
	for _, r := range pending {
		segs = append(segs, r.Segment)
	}
	s.segsBuf = segs
	s.prob = core.Problem{Start: s.drv.Position(), Requests: segs, ReadLen: s.readLen, Cost: s.model}
	plan, err := s.sched.Schedule(&s.prob)
	if err != nil {
		return nil, fmt.Errorf("server: scheduling %d pending: %w", len(pending), err)
	}
	if err := core.CheckPermutation(segs, plan.Order); err != nil {
		return nil, fmt.Errorf("server: %s plan: %w", s.sched.Name(), err)
	}
	return plan.Order, nil
}

// indexOfSegment returns the first pending request for seg, or -1.
func indexOfSegment(pending []Request, seg int) int {
	for i, r := range pending {
		if r.Segment == seg {
			return i
		}
	}
	return -1
}

// recordExec folds one execution's outcomes into the result, the open
// cut and the metrics: per-request sojourn and service times for the
// served, the failure split, and the executor's recovery counters.
func (s *state) recordExec(batch []Request, er *sim.ExecResult, dispatch float64) {
	// Map each served/failed segment occurrence back to its request,
	// FIFO per segment (duplicates are legal in a stream). The map
	// only holds slot indices into reusable per-segment slices, so
	// the steady-state loop touches no fresh allocations.
	if s.bySeg == nil {
		s.bySeg = make(map[int]int32, len(batch))
	}
	nSlots := 0
	for _, r := range batch {
		if si, dup := s.bySeg[r.Segment]; dup {
			s.slots[si] = append(s.slots[si], r)
			continue
		}
		if nSlots == len(s.slots) {
			s.slots = append(s.slots, nil)
			s.slotHead = append(s.slotHead, 0)
		}
		s.slots[nSlots] = append(s.slots[nSlots][:0], r)
		s.slotHead[nSlots] = 0
		s.bySeg[r.Segment] = int32(nSlots)
		nSlots++
	}
	for i, seg := range er.Served {
		si, ok := s.bySeg[seg]
		if !ok || s.slotHead[si] >= len(s.slots[si]) {
			continue
		}
		req := s.slots[si][s.slotHead[si]]
		s.slotHead[si]++
		completion := dispatch + er.Completions[i]
		sojourn := completion - req.ArrivalSec
		service := er.Completions[i]
		if s.trace != nil {
			rs := s.trace.Start("request", s.root, req.ArrivalSec).
				AttrInt("id", req.ID).AttrInt("segment", seg).
				AttrFloat("queue_sec", dispatch-req.ArrivalSec)
			s.trace.Start("queue", rs, req.ArrivalSec).End(dispatch)
			rs.End(completion)
		}
		s.res.Served++
		s.cut.Served++
		s.res.Sojourn.Add(sojourn)
		s.res.SojournTimes = append(s.res.SojournTimes, sojourn)
		s.res.Service.Add(service)
		s.res.ServiceTimes = append(s.res.ServiceTimes, service)
		if s.cServed == nil {
			s.cServed = s.counter("served_total")
			s.hSojourn = s.histogram("sojourn_seconds")
			s.hService = s.histogram("service_seconds")
		}
		s.cServed.Inc()
		s.hSojourn.Observe(sojourn)
		s.hService.Observe(service)
	}
	for range er.Failed {
		s.res.Failed++
		s.cut.Failed++
		if s.cFailed == nil {
			s.cFailed = s.counter("failed_total")
		}
		s.cFailed.Inc()
	}
	s.res.Replans += er.Replans
	s.cut.Retries += er.Retries
	s.cut.Replans += er.Replans
	s.cut.Recalibrations += er.Recalibrations
	s.cut.Fallbacks += er.Fallbacks
	s.cut.RecoverySec += er.RecoverySec
	clear(s.bySeg)
}
