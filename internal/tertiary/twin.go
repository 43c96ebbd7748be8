package tertiary

import (
	"fmt"
	"math"
	"sort"

	"serpentine/internal/core"
	"serpentine/internal/server"
)

// Estimate is the closed-form twin of Run: the same admission,
// batching, robot-arm and dispatch logic, with every drive operation
// charged the characterized locate model's analytical cost instead of
// stepping the emulated drive. A cell estimate costs one Schedule
// call per batch plus arithmetic per request, an order of magnitude
// less than the event-driven run, which makes it the right tool for
// coarse grid scans that don't need per-request fidelity.
//
// The estimate differs from Run only where the model differs from the
// emulated mechanism: the per-cartridge timing personality the model
// interpolates over, head-pass wear accounting (HeadPasses stays 0),
// and fault recovery — the twin is fault-free and ignores cfg.Faults,
// cfg.Reg and cfg.Spans. On fault-free runs the error is the model's
// interpolation error: about 1% mean latency error, ≤5% across the
// paper's Fig. 6/7 operating points (enforced by
// TestAnalyticalTwinAccuracy).
func (l *Library) Estimate(requests []Request) ([]Completion, Metrics, error) {
	arrivals := make([]pending, 0, len(requests))
	for i, r := range requests {
		o, ok := l.catalog.Get(r.ObjectID)
		if !ok {
			return nil, Metrics{}, fmt.Errorf("tertiary: request for unknown object %q", r.ObjectID)
		}
		if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) {
			return nil, Metrics{}, fmt.Errorf("tertiary: request %d arrives at %g", i, r.Arrival)
		}
		arrivals = append(arrivals, pending{req: r, obj: o})
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].req.Arrival < arrivals[j].req.Arrival })

	queueCap := l.cfg.QueueCap
	admCap := queueCap
	if queueCap <= 0 {
		queueCap = math.MaxInt / 2
		admCap = math.MaxInt / 2
	}
	s := &twinState{
		l:        l,
		cfg:      l.cfg,
		arrivals: arrivals,
		queueCap: queueCap,
		adm:      server.NewAdmissionQueue(admCap),
		q:        newBatchQueue(),
		drives:   make([]twinDrive, l.cfg.Drives),
		loadedBy: make(map[int64]int, l.cfg.Drives),
		done:     make([]Completion, 0, len(arrivals)),
	}
	for i := range s.drives {
		s.drives[i].id = i
		s.drives[i].idle = true
	}

	now, boundary := 0.0, true
	s.admit(now)
	for {
		if err := s.dispatch(now, boundary); err != nil {
			return nil, Metrics{}, err
		}
		t, atBoundary, ok := s.nextTime(now)
		if !ok {
			break
		}
		now, boundary = t, atBoundary
		for {
			ev, popped := s.events.popLE(now)
			if !popped {
				break
			}
			s.drives[ev.drive].idle = true
		}
		s.admit(now)
	}
	if stranded := s.q.len() + s.adm.Len(); stranded > 0 || s.next < len(s.arrivals) {
		return nil, Metrics{}, fmt.Errorf("tertiary: internal: %d requests stranded at end of estimate",
			stranded+len(s.arrivals)-s.next)
	}
	s.finish()
	return s.done, s.m, nil
}

// twinDrive is the analytical image of a transport: just a head
// position on a mounted serial, no emulated mechanism.
type twinDrive struct {
	id     int
	serial int64
	loaded bool
	idle   bool
	busy   float64
	pos    int
}

// twinState is one Estimate's event loop, mirroring runState's
// control flow on closed-form costs.
type twinState struct {
	l         *Library
	cfg       Config
	arrivals  []pending
	next      int
	queueCap  int
	adm       *server.AdmissionQueue
	q         *batchQueue
	drives    []twinDrive
	loadedBy  map[int64]int
	events    eventHeap
	robotFree float64
	done      []Completion
	m         Metrics
}

func (s *twinState) admit(until float64) {
	for s.next < len(s.arrivals) && s.arrivals[s.next].req.Arrival <= until {
		p := s.arrivals[s.next]
		id := s.next
		s.next++
		if s.q.len()+s.adm.Len() >= s.queueCap ||
			!s.adm.Offer(server.Request{ID: id, Segment: p.obj.Start, ArrivalSec: p.req.Arrival}) {
			s.m.Rejected++
		}
	}
	for _, r := range s.adm.PopNAppend(nil, 0) {
		s.q.push(s.arrivals[r.ID])
	}
	if d := s.q.len(); d > s.m.MaxQueueDepth {
		s.m.MaxQueueDepth = d
	}
}

func (s *twinState) dispatch(now float64, boundary bool) error {
	if s.cfg.Policy == server.FixedWindow && !boundary {
		return nil
	}
	if s.cfg.Policy == server.ReplanOnArrival {
		for i := range s.drives {
			d := &s.drives[i]
			if d.idle && d.loaded && s.q.perTape[d.serial] != nil {
				if err := s.serve(d, d.serial, now); err != nil {
					return err
				}
			}
		}
	}
	for i := range s.drives {
		d := &s.drives[i]
		if !d.idle {
			continue
		}
		serial, ok := s.q.pickFor(s.loadedBy, d.id)
		if !ok {
			continue
		}
		if err := s.serve(d, serial, now); err != nil {
			return err
		}
	}
	return nil
}

func (s *twinState) nextTime(now float64) (t float64, boundary, ok bool) {
	t = math.Inf(1)
	if s.events.len() > 0 {
		t, ok = s.events.min().at, true
	}
	if s.next < len(s.arrivals) {
		if a := s.arrivals[s.next].req.Arrival; a < t {
			t = a
		}
		ok = true
	}
	if s.cfg.Policy == server.FixedWindow && s.q.len() > 0 && s.anyIdle() {
		b := s.cfg.WindowSec * math.Ceil(now/s.cfg.WindowSec)
		for b <= now {
			b += s.cfg.WindowSec
		}
		if b <= t {
			t, boundary = b, true
		}
		ok = true
	}
	return t, boundary, ok
}

func (s *twinState) anyIdle() bool {
	for i := range s.drives {
		if s.drives[i].idle {
			return true
		}
	}
	return false
}

// exchange mirrors runState.exchange on model costs: the outgoing
// cartridge's modeled rewind, the robot-arm queueing discipline, and
// the mount/unmount handling times.
func (s *twinState) exchange(d *twinDrive, serial int64, now float64) (rewind, wait, exDur float64) {
	if d.loaded {
		rewind = s.l.models[d.serial].RewindTime(d.pos)
		exDur += s.cfg.UnmountSec
		s.m.Unmounts++
		s.m.RobotMoves++
		delete(s.loadedBy, d.serial)
	}
	exDur += s.cfg.MountSec
	s.m.Mounts++
	s.m.RobotMoves++

	exStart := now + rewind
	if s.robotFree > exStart {
		wait = s.robotFree - exStart
		s.m.RobotWaitSec += wait
	}
	s.robotFree = exStart + wait + exDur
	s.m.RobotBusySec += exDur
	d.serial = serial
	d.loaded = true
	d.pos = 0
	s.loadedBy[serial] = d.id
	return rewind, wait, exDur
}

func (s *twinState) serve(d *twinDrive, serial int64, now float64) error {
	limit := s.cfg.BatchLimit
	if s.cfg.Policy == server.ReplanOnArrival {
		limit = 1
	}
	batch := s.q.take(serial, limit)
	if len(batch) == 0 {
		return fmt.Errorf("tertiary: internal: dispatched empty batch for tape %d", serial)
	}
	d.idle = false

	var rewind, wait, exDur float64
	if !d.loaded || d.serial != serial {
		rewind, wait, exDur = s.exchange(d, serial, now)
	}
	serveStart := now + rewind + wait + exDur

	// Size classes in the same deterministic order as Run.
	rl0 := batch[0].obj.segments()
	single := true
	for i := 1; i < len(batch); i++ {
		if batch[i].obj.segments() != rl0 {
			single = false
			break
		}
	}
	elapsed := 0.0
	var err error
	if single {
		elapsed, err = s.serveClass(d, serial, now, serveStart, elapsed, wait, rewind+exDur, rl0, batch)
	} else {
		byLen := make(map[int][]pending)
		for _, p := range batch {
			byLen[p.obj.segments()] = append(byLen[p.obj.segments()], p)
		}
		lens := make([]int, 0, len(byLen))
		for k := range byLen {
			lens = append(lens, k)
		}
		sort.Slice(lens, func(i, j int) bool {
			if len(byLen[lens[i]]) != len(byLen[lens[j]]) {
				return len(byLen[lens[i]]) > len(byLen[lens[j]])
			}
			return lens[i] < lens[j]
		})
		for _, rl := range lens {
			if elapsed, err = s.serveClass(d, serial, now, serveStart, elapsed, wait, rewind+exDur, rl, byLen[rl]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}

	end := serveStart + elapsed
	d.busy += rewind + wait + exDur + elapsed
	s.events.push(driveEvent{at: end, drive: d.id})
	if end > s.m.Makespan {
		s.m.Makespan = end
	}
	s.m.Batches++
	return nil
}

// serveClass plans one size class with the run's scheduler and charges
// each leg's closed-form locate and read times. elapsed is the class's
// starting offset within the batch; the advanced offset is returned.
func (s *twinState) serveClass(d *twinDrive, serial int64, now, serveStart, elapsed, robotSec, mountSec float64, rl int, group []pending) (float64, error) {
	model := s.l.models[serial]
	bySeg := make(map[int][]pending, len(group))
	uniq := make([]int, 0, len(group))
	for _, p := range group {
		if _, dup := bySeg[p.obj.Start]; !dup {
			uniq = append(uniq, p.obj.Start)
		}
		bySeg[p.obj.Start] = append(bySeg[p.obj.Start], p)
	}
	prob := core.Problem{Start: d.pos, Requests: uniq, ReadLen: rl, Cost: model}
	plan, err := s.l.sched.Schedule(&prob)
	if err != nil {
		return 0, fmt.Errorf("tertiary: estimate scheduling %d requests on tape %d: %w", len(uniq), serial, err)
	}
	for _, seg := range plan.Order {
		begin := elapsed
		loc := model.LocateTime(d.pos, seg)
		read := 0.0
		for k := 0; k < rl; k++ {
			read += model.ReadTime(seg + k)
		}
		d.pos = seg + rl
		elapsed += loc + read
		waiters, ok := bySeg[seg]
		if !ok {
			return 0, fmt.Errorf("tertiary: estimate plan visits segment %d on tape %d more often than requested", seg, serial)
		}
		delete(bySeg, seg)
		done := serveStart + elapsed
		for _, p := range waiters {
			s.done = append(s.done, Completion{
				Request: p.req, Object: p.obj,
				Done:    done,
				DriveID: d.id,
				Attribution: Attribution{
					QueueSec:    (now - p.req.Arrival) + begin,
					RobotSec:    robotSec,
					MountSec:    mountSec,
					LocateSec:   loc,
					TransferSec: read,
				},
			})
		}
	}
	if len(bySeg) > 0 {
		return 0, fmt.Errorf("tertiary: estimate plan for tape %d left %d segments unvisited", serial, len(bySeg))
	}
	return elapsed, nil
}

func (s *twinState) finish() {
	for i := range s.drives {
		s.m.DriveBusySec += s.drives[i].busy
	}
	var latSum float64
	for _, c := range s.done {
		s.m.Served++
		lat := c.Latency()
		latSum += lat
		if lat > s.m.MaxLatency {
			s.m.MaxLatency = lat
		}
		s.m.BytesRead += int64(c.Object.segments()) * s.cfg.Profile.SegmentBytes
	}
	if s.m.Served > 0 {
		s.m.MeanLatency = latSum / float64(s.m.Served)
	}
	sort.SliceStable(s.done, func(i, j int) bool { return s.done[i].Done < s.done[j].Done })
}
