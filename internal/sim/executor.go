package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/obs"
)

// DefaultRequestTimeoutSec is the default drive-time budget one
// request may consume before the executor gives up on it — and the
// recommended per-request budget for the library's deadlines
// (tertiary.Config.DeadlineSec). Sharing one named constant keeps the
// two timeout paths from silently diverging: a request the executor
// would abandon is also one the library considers expired.
const DefaultRequestTimeoutSec = 900.0

// RetryPolicy bounds the executor's recovery behaviour. The zero
// value selects the defaults noted per field.
type RetryPolicy struct {
	// MaxRetries is how many failed attempts one request may consume
	// before the executor stops retrying in place and replans the
	// remaining work; 0 selects 3.
	MaxRetries int
	// BackoffBaseSec is the first transient-retry backoff, doubled on
	// every further retry of the same request and charged to the
	// drive's virtual clock; 0 selects 0.5.
	BackoffBaseSec float64
	// BackoffMaxSec caps the exponential backoff; 0 selects 30.
	BackoffMaxSec float64
	// RequestTimeoutSec is the drive-time budget one request may
	// consume (attempts plus backoff) before the executor abandons
	// the in-place retry loop and replans; 0 selects
	// DefaultRequestTimeoutSec.
	RequestTimeoutSec float64
	// MaxReplans bounds replanning per executed plan; when exhausted,
	// further unrecoverable requests are failed instead of replanned;
	// 0 selects 16.
	MaxReplans int
	// PlanningBudgetOps is the deterministic planning-cost budget per
	// replan, in modelled scheduler operations (see planningOps):
	// when the active scheduler's modelled cost for the remaining
	// batch exceeds it, the executor degrades along the LOSS → SLTF →
	// SCAN chain. The budget is deliberately a cost model rather than
	// a wall-clock stopwatch: scheduling decisions driven by measured
	// nanoseconds would make retry/replan counts depend on machine
	// load, destroying the reproducibility the chaos experiments
	// assert. 0 selects 4<<20 (~LOSS up to 2048 requests, matching
	// the Auto policy's crossover).
	PlanningBudgetOps int
}

// withDefaults resolves the zero-value fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBaseSec <= 0 {
		p.BackoffBaseSec = 0.5
	}
	if p.BackoffMaxSec <= 0 {
		p.BackoffMaxSec = 30
	}
	if p.RequestTimeoutSec <= 0 {
		p.RequestTimeoutSec = DefaultRequestTimeoutSec
	}
	if p.MaxReplans <= 0 {
		p.MaxReplans = 16
	}
	if p.PlanningBudgetOps <= 0 {
		p.PlanningBudgetOps = 4 << 20
	}
	return p
}

// backoff returns the wait before transient retry k (0-based):
// BackoffBaseSec * 2^k, capped at BackoffMaxSec.
func (p RetryPolicy) backoff(k int) float64 {
	b := p.BackoffBaseSec * math.Pow(2, float64(k))
	if b > p.BackoffMaxSec {
		return p.BackoffMaxSec
	}
	return b
}

// ExecResult accounts one plan execution on the drive. Served,
// Completions and Detail are the executor's own buffers, valid until
// its next Execute: a caller that keeps them past that copies them.
type ExecResult struct {
	// Served lists the segments retrieved successfully, in service
	// order (the plan order, re-shuffled by any replans).
	Served []int
	// Failed lists the segments abandoned permanently (media errors,
	// retry exhaustion past the replan budget). FailedAt holds, index
	// aligned, the drive-time offset from the start of the execution
	// at which each abandonment was decided — the library's rescue
	// layer uses it to place a failure before or after a drive death.
	Failed   []int
	FailedAt []float64
	// Retries counts failed attempts that were retried in place
	// (transient reads, overshoot re-locates).
	Retries int
	// Replans counts mid-schedule replannings of the remaining
	// requests from the current head position.
	Replans int
	// Recalibrations counts rewind-to-BOT recoveries from lost servo
	// position.
	Recalibrations int
	// Fallbacks counts scheduler downgrades along the LOSS → SLTF →
	// SCAN chain when replanning exceeded the planning budget.
	Fallbacks int
	// ElapsedSec is the total virtual time the execution took,
	// including all recovery.
	ElapsedSec float64
	// RecoverySec is the share of ElapsedSec spent on recovery:
	// failed attempts, backoff waits and recalibrations.
	RecoverySec float64
	// Completions holds, for each served request in service order,
	// its completion time offset from the start of the execution; the
	// chaos experiments take p99 over these.
	Completions []float64
	// Detail decomposes each Completions entry into its phases; it is
	// index-aligned with Served.
	Detail []ServeDetail
}

// ServeDetail decomposes one served request's completion offset into
// phases. The four fields sum to the request's Completions entry (to
// floating-point telescoping error, well under a nanosecond): the
// attribution layer relies on that conservation.
type ServeDetail struct {
	// BeginSec is the time from the start of the execution until the
	// request's final (successful) serve loop began: serving the
	// requests ahead of it, plus any earlier abandoned serve loops,
	// replans and recalibrations of its own.
	BeginSec float64
	// RetrySec is the recovery spent inside the final serve loop —
	// failed attempts and backoff waits before the successful attempt.
	RetrySec float64
	// LocateSec is the successful locate.
	LocateSec float64
	// ReadSec is the successful transfer.
	ReadSec float64
}

// Executor runs retrieval plans against an emulated drive, recovering
// from injected faults: transient failures are retried in place with
// exponential backoff, overshoots re-locate from where the head
// landed, lost servo position triggers recalibration, and both lost
// position and retry exhaustion replan the remaining requests from
// the current head position with the active scheduler. When the
// modelled planning cost of a replan exceeds the policy's budget the
// executor degrades along the LOSS → SLTF → SCAN chain (the cheaper
// schedulers reuse the same pooled arenas, so a degraded replan costs
// one allocation). The degradation is sticky across replans of the
// same execution and resets on the next Execute call.
//
// Like the drive it wraps, an Executor is not safe for concurrent
// use.
type Executor struct {
	// Drive executes the schedules.
	Drive *drive.Drive
	// Scheduler replans after failures; nil selects LOSS. Chain
	// position 0; SLTF and SCAN complete the degradation chain.
	Scheduler core.Scheduler
	// Policy bounds the recovery behaviour.
	Policy RetryPolicy

	// Trace, when non-nil, records this execution's serve, backoff,
	// recalibrate and replan phases as spans. Tracing is pure
	// accounting: it never touches the drive, so timing is
	// bit-identical with and without it.
	Trace *obs.TraceHandle
	// Parent is the span the execution's spans nest under (may be
	// nil for top-level spans).
	Parent *obs.SpanHandle
	// TraceBase maps the drive's clock, which starts at zero on every
	// mount, onto the trace's absolute virtual time: a span at drive
	// time t is recorded at TraceBase + t.
	TraceBase float64

	level int         // current degradation tier for this execution
	pol   RetryPolicy // Policy with defaults resolved, set per Execute
	rem   []int       // reusable remaining-requests buffer

	served []int // the result's buffers, resliced on every Execute
	comps  []float64
	detail []ServeDetail
}

// serve verdicts.
type verdict int

const (
	vServed verdict = iota
	vFailed
	vReplan
)

func (v verdict) String() string {
	switch v {
	case vServed:
		return "served"
	case vFailed:
		return "failed"
	default:
		return "replan"
	}
}

// Execute runs the plan's order against the drive. The problem
// supplies the cost model and read length replanning needs; plan must
// be a plan for that problem. Requests that fail permanently are
// recorded in the result, not returned as an error: an error return
// means the execution itself was invalid (nil drive, out-of-range
// request), after which the drive state is unspecified.
//
// With no enabled fault injector on the drive, Execute performs
// exactly the locate/read sequence of drive.ExecuteOrder — or
// drive.ReadEntireTape for whole-tape plans — and its timing is
// bit-identical to those primitives.
func (ex *Executor) Execute(p *core.Problem, plan core.Plan) (ExecResult, error) {
	var res ExecResult
	if ex.Drive == nil {
		return res, fmt.Errorf("sim: Executor needs a drive")
	}
	if p == nil || p.Cost == nil {
		return res, fmt.Errorf("sim: Executor needs a problem with a cost model")
	}
	ex.level = 0
	ex.pol = ex.Policy.withDefaults()
	readLen := p.ReadLen
	if readLen < 1 {
		readLen = 1
	}
	start := ex.Drive.Clock()
	// Each request is served at most once: buffers at plan size never
	// regrow.
	n := len(plan.Order)
	ex.served = slices.Grow(ex.served[:0], n)
	ex.comps = slices.Grow(ex.comps[:0], n)
	ex.detail = slices.Grow(ex.detail[:0], n)
	res.Served, res.Completions, res.Detail = ex.served, ex.comps, ex.detail

	// A whole-tape READ plan on a fault-free drive is a streaming
	// pass, not a locate sequence; keep that execution path so READ
	// timing matches the validation experiments. Under injected
	// faults the pass is executed request by request (the plan's
	// order is ascending, so the locates degenerate to short forward
	// skips) because recovery needs per-request granularity.
	if plan.WholeTape && !ex.Drive.FaultsEnabled() {
		sp := ex.Trace.Start("read-tape", ex.Parent, ex.TraceBase+start).
			AttrInt("requests", len(plan.Order))
		el, err := ex.Drive.ReadEntireTape()
		sp.End(ex.TraceBase + ex.Drive.Clock())
		if err != nil {
			return res, err
		}
		res.Served = append(res.Served, plan.Order...)
		for range plan.Order {
			res.Completions = append(res.Completions, el)
			res.Detail = append(res.Detail, ServeDetail{ReadSec: el})
		}
		res.ElapsedSec = ex.Drive.Clock() - start
		return res, nil
	}

	if cap(ex.rem) < len(plan.Order) {
		ex.rem = make([]int, len(plan.Order))
	}
	remaining := ex.rem[:len(plan.Order)]
	copy(remaining, plan.Order)
	// strikes counts replan-triggering failures per segment: a
	// segment that survives a replan and again exhausts its retries
	// is abandoned rather than replanned forever.
	var strikes map[int]int

	for len(remaining) > 0 {
		seg := remaining[0]
		v, clk, err := ex.serve(seg, readLen, &res)
		if err != nil {
			res.ElapsedSec = ex.Drive.Clock() - start
			return res, err
		}
		switch v {
		case vServed:
			res.Served = append(res.Served, seg)
			res.Completions = append(res.Completions, ex.Drive.Clock()-start)
			res.Detail = append(res.Detail, ServeDetail{
				BeginSec:  clk.begin - start,
				RetrySec:  clk.retryEnd - clk.begin,
				LocateSec: clk.locateEnd - clk.retryEnd,
				ReadSec:   clk.end - clk.locateEnd,
			})
			remaining = remaining[1:]
		case vFailed:
			res.Failed = append(res.Failed, seg)
			res.FailedAt = append(res.FailedAt, ex.Drive.Clock()-start)
			remaining = remaining[1:]
		case vReplan:
			reason := "retry-exhausted"
			if ex.Drive.Lost() {
				reason = "lost-position"
				rsp := ex.Trace.Start("recalibrate", ex.Parent, ex.TraceBase+ex.Drive.Clock())
				t := ex.Drive.Recalibrate()
				res.Recalibrations++
				res.RecoverySec += t
				rsp.End(ex.TraceBase + ex.Drive.Clock())
			}
			if strikes == nil {
				strikes = make(map[int]int)
			}
			strikes[seg]++
			if strikes[seg] >= 2 || res.Replans >= ex.pol.MaxReplans {
				res.Failed = append(res.Failed, seg)
				res.FailedAt = append(res.FailedAt, ex.Drive.Clock()-start)
				remaining = remaining[1:]
				continue
			}
			res.Replans++
			rp := ex.Trace.Start("replan", ex.Parent, ex.TraceBase+ex.Drive.Clock()).
				Attr("reason", reason).AttrInt("remaining", len(remaining))
			remaining = ex.replan(p, remaining, &res, rp)
			rp.End(ex.TraceBase + ex.Drive.Clock())
		}
	}
	res.ElapsedSec = ex.Drive.Clock() - start
	return res, nil
}

// serveClocks marks the absolute drive-clock milestones of one serve
// loop: when it began, when in-place recovery ended (the successful
// attempt's start), when the successful locate finished, and when the
// transfer finished. Only a vServed loop fills the last three.
type serveClocks struct {
	begin, retryEnd, locateEnd, end float64
}

// serve retrieves one request, retrying in place per the policy. It
// returns vServed on success, vFailed on a permanent per-request
// failure (media error, read past end of tape), vReplan when in-place
// retry is exhausted or position was lost, and a non-nil error only
// for invalid executions.
func (ex *Executor) serve(seg, readLen int, res *ExecResult) (verdict, serveClocks, error) {
	// The serve span brackets the whole loop. Closing it in a deferred
	// closure would allocate the closure on every serve, traced or
	// not; serveLoop returns normally on every path, so the span is
	// closed inline instead.
	sp := ex.Trace.Start("serve", ex.Parent, ex.TraceBase+ex.Drive.Clock()).AttrInt("segment", seg)
	v, clk, err := ex.serveLoop(seg, readLen, res, sp)
	if sp != nil {
		sp.Attr("verdict", v.String()).End(ex.TraceBase + ex.Drive.Clock())
	}
	return v, clk, err
}

// serveLoop is serve's retry loop, span handling factored out. sp is
// the enclosing serve span backoff spans nest under (nil untraced).
func (ex *Executor) serveLoop(seg, readLen int, res *ExecResult, sp *obs.SpanHandle) (v verdict, clk serveClocks, err error) {
	d := ex.Drive
	pol := ex.pol
	begin := d.Clock()
	clk.begin = begin
	fails := 0
	for {
		if d.Lost() {
			return vReplan, clk, nil
		}
		if fails > pol.MaxRetries {
			return vReplan, clk, nil
		}
		if d.Clock()-begin > pol.RequestTimeoutSec {
			return vReplan, clk, nil
		}
		attemptStart := d.Clock()
		if _, err := d.Locate(seg); err != nil {
			switch {
			case errors.Is(err, drive.ErrOvershoot):
				// The head is past the target; re-locate from where
				// it stopped. No backoff: the failure is positional,
				// not load-related.
				fails++
				res.Retries++
				res.RecoverySec += d.Clock() - attemptStart
				continue
			case errors.Is(err, drive.ErrLostPosition):
				res.RecoverySec += d.Clock() - attemptStart
				return vReplan, clk, nil
			default:
				return vFailed, clk, err
			}
		}
		locateEnd := d.Clock()
		_, err := d.Read(readLen)
		if err == nil {
			clk.retryEnd = attemptStart
			clk.locateEnd = locateEnd
			clk.end = d.Clock()
			return vServed, clk, nil
		}
		res.RecoverySec += d.Clock() - attemptStart
		switch {
		case errors.Is(err, drive.ErrMedia):
			return vFailed, clk, nil
		case errors.Is(err, drive.ErrTransient):
			res.Retries++
			wait := pol.backoff(fails)
			fails++
			bs := ex.Trace.Start("backoff", sp, ex.TraceBase+d.Clock()).
				AttrFloat("wait_sec", wait)
			d.Wait(wait)
			bs.End(ex.TraceBase + d.Clock())
			res.RecoverySec += wait
			continue
		case errors.Is(err, drive.ErrLostPosition):
			return vReplan, clk, nil
		case errors.Is(err, drive.ErrEndOfTape):
			// The request cannot be transferred at this read length;
			// a plan/problem mismatch rather than a drive fault.
			return vFailed, clk, nil
		default:
			return vFailed, clk, err
		}
	}
}

// replan reorders the remaining requests from the drive's current
// head position. The active scheduler is tried first; when its
// modelled planning cost exceeds the budget, or it fails, the
// executor degrades to the next tier of the LOSS → SLTF → SCAN chain
// and stays there for the rest of this execution. Replanning never
// loses or invents a request: a schedule that is not a permutation of
// the remaining set is rejected, and if every tier fails the current
// order is kept.
func (ex *Executor) replan(p *core.Problem, remaining []int, res *ExecResult, sp *obs.SpanHandle) []int {
	pol := ex.pol
	prob := &core.Problem{
		Start:    ex.Drive.Position(),
		Requests: remaining,
		ReadLen:  p.ReadLen,
		Cost:     p.Cost,
	}
	chain := ex.chain()
	var skipped []string
	for ; ex.level < len(chain); ex.level++ {
		s := chain[ex.level]
		if planningOps(s.Name(), len(remaining)) > pol.PlanningBudgetOps {
			res.Fallbacks++
			skipped = append(skipped, s.Name())
			continue
		}
		plan, err := s.Schedule(prob)
		if err != nil || core.CheckPermutation(remaining, plan.Order) != nil {
			res.Fallbacks++
			skipped = append(skipped, s.Name())
			continue
		}
		if len(skipped) > 0 {
			sp.Attr("skipped", strings.Join(skipped, ","))
		}
		sp.Attr("scheduler", s.Name())
		return plan.Order
	}
	// Every tier was over budget or failed: keep the current order.
	ex.level = len(chain) - 1
	if len(skipped) > 0 {
		sp.Attr("skipped", strings.Join(skipped, ","))
	}
	sp.Attr("scheduler", "none")
	return remaining
}

// chain returns the degradation chain: the configured scheduler (LOSS
// when nil), then SLTF, then SCAN, deduplicated by name.
func (ex *Executor) chain() []core.Scheduler {
	first := ex.Scheduler
	if first == nil {
		first = core.NewLOSS()
	}
	chain := []core.Scheduler{first}
	for _, s := range []core.Scheduler{core.NewSLTF(), core.Scan{}} {
		if s.Name() != first.Name() {
			chain = append(chain, s)
		}
	}
	return chain
}

// planningOps models the planning cost of scheduling n requests, in
// abstract operations, from each algorithm's asymptotic shape (LOSS
// builds a dense n-squared matrix; SLTF scans section buckets; the
// rest are linearithmic). It exists so the planning-budget decision
// is a pure function of (scheduler, n) — see
// RetryPolicy.PlanningBudgetOps for why wall-clock time would be
// wrong.
func planningOps(name string, n int) int {
	switch name {
	case "OPT":
		if n > 12 {
			return math.MaxInt
		}
		return n * (1 << n)
	case "LOSS", "LOSS-C":
		return n * n
	case "LOSS-SPARSE":
		return 64 * n
	case "SLTF", "SLTF-C":
		return 40 * n
	default: // FIFO, SORT, SCAN, WEAVE, READ: (near-)linear
		return 8 * n
	}
}
