package server

import (
	"fmt"
	"math"

	"serpentine/internal/core"
	"serpentine/internal/locate"
)

// AnalyticalRun is the closed-form twin of Run: it estimates the same
// Result — sojourn and service times, batch durations, utilization —
// without emulating the drive. Batches are cut by the same admission
// and batching logic and planned by the same scheduler, but each
// request is charged the characterized locate model's closed-form
// locate and read times instead of stepping the drive, so a run costs
// one Schedule call per batch and arithmetic per request.
//
// The estimate differs from the discrete-event sim only where the
// model differs from the emulated mechanism: the drive's per-cartridge
// timing personality (the model interpolates between characterized key
// points) and fault recovery (the twin is fault-free; cfg.Faults is
// ignored). On fault-free runs the error is the model's interpolation
// error — about 1% mean, ≤5% across the paper's Fig. 6/7 operating
// points (enforced by TestAnalyticalTwinAccuracy). Metrics, traces and
// spans are not emitted: cfg.Reg and cfg.Spans are
// ignored. Result.Reg is nil.
func AnalyticalRun(cfg Config, arrivals []Request) (*Result, error) {
	serial := cfg.Serial
	if serial == 0 {
		serial = 1
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewLOSS()
	}
	readLen := cfg.ReadLen
	if readLen < 1 {
		readLen = 1
	}
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = 1024
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = 600
	}
	if cfg.WindowSec < 0 || math.IsNaN(cfg.WindowSec) || math.IsInf(cfg.WindowSec, 0) {
		return nil, fmt.Errorf("server: window of %g seconds", cfg.WindowSec)
	}
	cart, err := cartridgeFor(serial)
	if err != nil {
		return nil, err
	}
	model := cart.model
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

	t := &twin{
		cfg:      cfg,
		model:    model,
		sched:    sched,
		readLen:  readLen,
		queue:    NewAdmissionQueue(queueCap),
		arrivals: arrivals,
	}
	t.res.Alg = sched.Name()
	t.res.Policy = cfg.Policy
	if err := t.run(); err != nil {
		return nil, err
	}
	return &t.res, nil
}

// twin is AnalyticalRun's event loop: the same admit/cut/serve cycle
// as state, on closed-form service times.
type twin struct {
	cfg      Config
	model    *locate.Model
	sched    core.Scheduler
	readLen  int
	queue    *AdmissionQueue
	arrivals []Request
	next     int
	clock    float64
	busy     float64
	pos      int
	res      Result
}

func (t *twin) admit(until float64) int {
	n := 0
	for t.next < len(t.arrivals) && t.arrivals[t.next].ArrivalSec <= until {
		r := t.arrivals[t.next]
		t.next++
		if t.queue.Offer(r) {
			n++
		} else {
			t.res.Rejected++
		}
	}
	return n
}

func (t *twin) run() error {
	for t.next < len(t.arrivals) || t.queue.Len() > 0 {
		t.admit(t.clock)
		if t.queue.Len() == 0 {
			if a := t.arrivals[t.next].ArrivalSec; a > t.clock {
				t.clock = a
			}
			t.admit(t.clock)
			continue
		}
		if t.cfg.Policy == FixedWindow {
			boundary := t.cfg.WindowSec * math.Ceil(t.clock/t.cfg.WindowSec)
			if boundary > t.clock {
				t.clock = boundary
			}
			t.admit(boundary)
		}
		batch := t.queue.PopN(t.cfg.MaxBatch)
		var err error
		if t.cfg.Policy == ReplanOnArrival {
			err = t.serveIncremental(batch)
		} else {
			err = t.serveBatch(batch)
		}
		if err != nil {
			return err
		}
	}
	t.res.MakespanSec = t.clock
	t.res.BusySec = t.busy
	t.res.IdleSec = t.clock - t.busy
	t.res.FinalHead = t.pos
	t.res.MaxQueueDepth = t.queue.MaxDepth()
	return nil
}

// serveOne charges one request's closed-form cost from the current
// head position and advances the head past its transfer.
func (t *twin) serveOne(seg int) float64 {
	cost := t.model.LocateTime(t.pos, seg)
	for k := 0; k < t.readLen; k++ {
		cost += t.model.ReadTime(seg + k)
	}
	t.pos = seg + t.readLen
	return cost
}

// record folds one served request into the result. completion and
// dispatch are absolute virtual times.
func (t *twin) record(r Request, completion, dispatch float64) {
	sojourn := completion - r.ArrivalSec
	service := completion - dispatch
	t.res.Served++
	t.res.Sojourn.Add(sojourn)
	t.res.SojournTimes = append(t.res.SojournTimes, sojourn)
	t.res.Service.Add(service)
	t.res.ServiceTimes = append(t.res.ServiceTimes, service)
}

func (t *twin) plan(pending []Request) ([]int, error) {
	segs := make([]int, len(pending))
	for i, r := range pending {
		segs[i] = r.Segment
	}
	prob := core.Problem{Start: t.pos, Requests: segs, ReadLen: t.readLen, Cost: t.model}
	plan, err := t.sched.Schedule(&prob)
	if err != nil {
		return nil, fmt.Errorf("server: twin scheduling %d pending: %w", len(pending), err)
	}
	if err := core.CheckPermutation(segs, plan.Order); err != nil {
		return nil, fmt.Errorf("server: twin %s plan: %w", t.sched.Name(), err)
	}
	return plan.Order, nil
}

func (t *twin) serveBatch(batch []Request) error {
	if len(batch) == 0 {
		return nil
	}
	order, err := t.plan(batch)
	if err != nil {
		return err
	}
	dispatch := t.clock
	// Requests are matched to plan positions FIFO per segment, exactly
	// like state.recordExec.
	taken := make([]bool, len(batch))
	for _, seg := range order {
		cost := t.serveOne(seg)
		t.clock += cost
		t.busy += cost
		for i, r := range batch {
			if !taken[i] && r.Segment == seg {
				taken[i] = true
				t.record(r, t.clock, dispatch)
				break
			}
		}
	}
	t.res.Batches++
	t.res.BatchDurations = append(t.res.BatchDurations, t.clock-dispatch)
	return nil
}

func (t *twin) serveIncremental(batch []Request) error {
	pending := append([]Request(nil), batch...)
	order, err := t.plan(pending)
	if err != nil {
		return err
	}
	cutStart := t.clock
	size := len(batch)
	for len(pending) > 0 {
		seg := order[0]
		order = order[1:]
		idx := indexOfSegment(pending, seg)
		if idx < 0 {
			return fmt.Errorf("server: twin plan serves segment %d not in the pending set", seg)
		}
		req := pending[idx]
		pending = append(pending[:idx], pending[idx+1:]...)

		dispatch := t.clock
		cost := t.serveOne(seg)
		t.clock += cost
		t.busy += cost
		t.record(req, t.clock, dispatch)

		merged := 0
		if t.admit(t.clock) > 0 {
			fresh := t.queue.PopN(0)
			merged = len(fresh)
			size += merged
			pending = append(pending, fresh...)
		}
		if len(pending) == 0 {
			continue
		}
		if merged > 0 || len(order) == 0 {
			if merged > 0 {
				t.res.IncrementalReplans++
			}
			if order, err = t.plan(pending); err != nil {
				return err
			}
		}
	}
	t.res.Batches++
	t.res.BatchDurations = append(t.res.BatchDurations, t.clock-cutStart)
	return nil
}
