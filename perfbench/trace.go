package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"serpentine/internal/core"
	"serpentine/internal/fleet"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
)

// kind names one wrapped call site: a layer's public function or
// interface seam, called from the benchmark's own code.
type kind uint8

const (
	kLocateEval   kind = iota // locate.Cost.LocateTime, folded per enclosing span
	kLocateMatrix             // locate.MatrixCost.CostMatrix
	kCoreSchedule             // core.Scheduler.Schedule
	kSimExecute               // sim.Executor.Execute
	kDriveNew                 // drive.New
	kTertiaryRun              // tertiary.Library.Run
	kFleetRun                 // fleet.Fleet.Run
	kFleetRoute               // fleet.Router.Score
	kObsSLO                   // obs.SLOEngine replay of one run's event log
	nKinds
)

var kindNames = [nKinds]string{
	"locate.eval", "locate.matrix", "core.schedule", "sim.execute", "drive.new",
	"tertiary.run", "fleet.run", "fleet.route", "obs.slo",
}

// span is one wrapped call. Times are host nanoseconds since the
// tracer's origin. busy is the host time the span covers: end-start
// for a real call; for folded locate evaluations (one record per
// enclosing span, because a single LocateTime takes about as long as
// reading the clock) it is the summed duration of the calls, and
// calls counts them.
type span struct {
	kind       kind
	id         int64 // batch or request ordinal within the pass
	parent     int32 // index of the enclosing span, -1 at top level
	start, end int64
	busy       int64
	calls      int32
}

// frame is an open span on the tracer's stack.
type frame struct {
	kind  kind
	idx   int32 // slot in spans, -1 when the span store was full
	id    int64
	start int64
	child int64 // busy time covered by child spans and folded evaluations
	// folded LocateTime evaluations made directly inside this frame
	foldN     int32
	foldStart int64
	foldEnd   int64
	foldBusy  int64
}

// kindStats aggregates every call of one kind, stored or not.
type kindStats struct {
	calls int64
	busy  int64 // ns
	self  int64 // ns: busy minus the time child spans cover
}

// tracer keeps spans in memory and per-kind aggregates. Calls happen
// on one goroutine, so children never overlap each other and the time
// they cover is the sum of their busy times.
type tracer struct {
	origin  time.Time
	stack   []frame
	spans   []span
	max     int
	dropped int64
	stats   [nKinds]kindStats
	top     frame // catches evaluations made outside any span
	// scheduleNs holds each core.Scheduler.Schedule call's duration,
	// for its percentiles.
	scheduleNs []float64
	scheduled  int64 // requests handed to Schedule
	sloEvents  int64 // wide events replayed into SLO engines
}

func newTracer(maxSpans int) *tracer {
	return &tracer{origin: time.Now(), max: maxSpans, top: frame{idx: -1}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) current() *frame {
	if len(t.stack) == 0 {
		return &t.top
	}
	return &t.stack[len(t.stack)-1]
}

// begin opens a span of kind k for batch or request id. A nil
// tracer records nothing, so untraced passes share the call sites.
func (t *tracer) begin(k kind, id int64) {
	if t == nil {
		return
	}
	parent := t.current().idx
	idx := int32(-1)
	if len(t.spans) < t.max {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: k, id: id, parent: parent, calls: 1})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{kind: k, idx: idx, id: id, start: t.now()})
}

// end closes the innermost span and returns its duration in ns.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	stop := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.flushFold(&f)
	dur := stop - f.start
	st := &t.stats[f.kind]
	st.calls++
	st.busy += dur
	st.self += dur - f.child
	t.current().child += dur
	if f.idx >= 0 {
		s := &t.spans[f.idx]
		s.start, s.end, s.busy = f.start, stop, dur
	}
	return dur
}

// fold records one LocateTime evaluation that started at start and
// took dur ns, inside the innermost open span.
func (t *tracer) fold(start, dur int64) {
	f := t.current()
	if f.foldN == 0 {
		f.foldStart = start
	}
	f.foldN++
	f.foldEnd = start + dur
	f.foldBusy += dur
	f.child += dur
	st := &t.stats[kLocateEval]
	st.calls++
	st.busy += dur
	st.self += dur
}

// flushFold stores f's folded evaluations as one span under f.
func (t *tracer) flushFold(f *frame) {
	if f.foldN == 0 {
		return
	}
	if len(t.spans) < t.max {
		t.spans = append(t.spans, span{
			kind: kLocateEval, id: f.id, parent: f.idx,
			start: f.foldStart, end: f.foldEnd, busy: f.foldBusy, calls: f.foldN,
		})
	} else {
		t.dropped++
	}
	f.foldN, f.foldBusy = 0, 0
}

// writeSpans writes the stored spans as tab-separated rows, one per
// span, with the header naming the columns.
func (t *tracer) writeSpans(path string) error {
	t.flushFold(&t.top)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans stored %d, dropped %d (store cap %d)\n", len(t.spans), t.dropped, t.max)
	fmt.Fprintln(w, "index\tkind\tid\tparent\tstart_ns\tend_ns\tbusy_ns\tcalls")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			i, kindNames[s.kind], s.id, s.parent, s.start, s.end, s.busy, s.calls)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCost wraps the scheduler's cost model. It forwards CostMatrix
// so the schedulers keep the MatrixCost fast path.
type tracedCost struct {
	inner locate.Cost
	tr    *tracer
}

var _ locate.MatrixCost = tracedCost{}

func (c tracedCost) LocateTime(src, dst int) float64 {
	start := c.tr.now()
	v := c.inner.LocateTime(src, dst)
	c.tr.fold(start, c.tr.now()-start)
	return v
}

func (c tracedCost) CostMatrix(buf []float64, srcs, dsts []int) {
	c.tr.begin(kLocateMatrix, c.tr.current().id)
	locate.FillCostMatrix(c.inner, buf, srcs, dsts)
	c.tr.end()
	// A matrix fill is len(srcs)*len(dsts) evaluations; count them
	// with the eval kind so locate.evals covers both paths.
	c.tr.stats[kLocateEval].calls += int64(len(srcs) * len(dsts))
}

func (c tracedCost) ReadTime(lbn int) float64 { return c.inner.ReadTime(lbn) }
func (c tracedCost) FullReadTime() float64    { return c.inner.FullReadTime() }
func (c tracedCost) View() *geometry.View     { return c.inner.View() }
func (c tracedCost) Segments() int            { return c.inner.Segments() }

// tracedScheduler wraps a core.Scheduler: each Schedule call is a
// core span, and the problem's cost model is swapped for a tracedCost
// so the locate work inside shows as child spans.
type tracedScheduler struct {
	inner core.Scheduler
	tr    *tracer
	batch int64
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(p *core.Problem) (core.Plan, error) {
	q := *p
	q.Cost = tracedCost{inner: p.Cost, tr: s.tr}
	s.tr.begin(kCoreSchedule, s.batch)
	plan, err := s.inner.Schedule(&q)
	dur := s.tr.end()
	s.batch++
	s.tr.scheduleNs = append(s.tr.scheduleNs, float64(dur))
	s.tr.scheduled += int64(len(p.Requests))
	return plan, err
}

// tracedRouter wraps a fleet.Router: each Score call is a span.
type tracedRouter struct {
	inner fleet.Router
	tr    *tracer
}

func (r tracedRouter) Name() string { return r.inner.Name() }

func (r tracedRouter) Score(ordinal, shards int, cands []fleet.Candidate, scores []float64) {
	r.tr.begin(kFleetRoute, int64(ordinal))
	r.inner.Score(ordinal, shards, cands, scores)
	r.tr.end()
}
