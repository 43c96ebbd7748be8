package tertiary

import (
	"fmt"
	"math"
)

// Runner is the library's event loop opened for external driving: the
// same state machine Run advances to completion in one call, exposed
// step by step so a routing tier can interleave many libraries on one
// virtual clock. The contract is strict alternation with virtual time:
// advance every shard to an arrival's timestamp, inspect the probes
// (queue depth, mounted cartridges, lost cartridges, headroom), offer
// the request to the shard the router chose, and repeat; Finish drains
// the loop and returns the completions and metrics.
//
// A Runner fed the requests of a Run call in arrival order — offered
// between AdvanceTo calls at their own timestamps — produces
// bit-identical completions and metrics to that Run call:
// TestRunnerMatchesRun and the fleet's single-shard equivalence test
// pin exactly this.
//
// A Runner belongs to one goroutine, like the run loop it wraps.
type Runner struct {
	s    *runState
	last float64 // latest offered arrival, for monotonicity checks
}

// StartRun opens the library's event loop with an empty arrival
// stream. Requests are fed in with Offer; Finish closes the loop.
func (l *Library) StartRun() (*Runner, error) {
	s, err := l.newRun(nil)
	if err != nil {
		return nil, err
	}
	return &Runner{s: s}, nil
}

// Offer appends one request to the arrival stream. Offers must be
// nondecreasing in arrival time and never earlier than the clock the
// runner has already advanced to — the event loop, like time, does not
// rewind. The request is admitted (or rejected, shed, redirected) when
// the loop next advances to its arrival time.
func (r *Runner) Offer(req Request) error {
	return r.OfferRouted(req, "")
}

// OfferRouted is Offer carrying the routing tier's decision for the
// request ("affinity", "cross-shard", ...): pure annotation, stamped
// onto the request's wide event and nothing else.
func (r *Runner) OfferRouted(req Request, route string) error {
	s := r.s
	if s.finished {
		return fmt.Errorf("tertiary: offer after Finish")
	}
	p, dl, err := s.l.resolve(len(s.arrivals), req)
	if err != nil {
		return err
	}
	if req.Arrival < r.last || req.Arrival < s.now {
		return fmt.Errorf("tertiary: request offered at %g behind the clock (last offer %g, now %g)",
			req.Arrival, r.last, s.now)
	}
	r.last = req.Arrival
	p.route = route
	s.hasDeadlines = s.hasDeadlines || dl
	s.arrivals = append(s.arrivals, p)
	return nil
}

// AdvanceTo runs the event loop until nothing more can happen at or
// before t: offered arrivals are admitted and dispatched, drives
// complete and fail, rescues requeue. Times before the current clock
// are a no-op, never a rewind.
func (r *Runner) AdvanceTo(t float64) error {
	if r.s.finished {
		return fmt.Errorf("tertiary: advance after Finish")
	}
	if math.IsNaN(t) {
		return fmt.Errorf("tertiary: advance to NaN")
	}
	if t < r.s.now {
		t = r.s.now
	}
	return r.s.stepTo(t)
}

// Finish drains the loop to quiescence and returns the completions (in
// completion order) and the run metrics, exactly as Run would.
func (r *Runner) Finish() ([]Completion, Metrics, error) {
	if r.s.finished {
		return nil, Metrics{}, fmt.Errorf("tertiary: double Finish")
	}
	if err := r.s.stepTo(math.Inf(1)); err != nil {
		return nil, Metrics{}, err
	}
	return r.s.close()
}

// Now returns the runner's current virtual time.
func (r *Runner) Now() float64 { return r.s.now }

// Completed returns the completions recorded so far, in record order:
// the deterministic order the event loop appended them at dispatch
// time, not completion order, and with Done timestamps that may still
// lie ahead of the clock (a batch's completions are priced when it
// dispatches). The slice is the loop's own backing store — read-only,
// growing across AdvanceTo calls, and re-sorted into completion order
// by Finish, so incremental consumers (the staging tier harvesting
// fetch returns) must drain it by index before calling Finish.
func (r *Runner) Completed() []Completion { return r.s.done }

// QueueDepth is the pending backlog: requests admitted to the
// per-cartridge backlog but not yet dispatched to a drive, plus those
// offered but not yet admitted. The offered ones count so that a router
// scoring several same-timestamp requests sees each earlier decision
// reflected in the load it scores the next one by. It is the signal a
// least-loaded router ranks shards with.
func (r *Runner) QueueDepth() int {
	return r.s.q.len() + len(r.s.arrivals) - r.s.next
}

// Mounted reports whether the cartridge is currently loaded in one of
// the library's drives (a cartridge riding the robot's gripper after a
// rescue is not). It is the affinity signal: a request routed to the
// shard already holding its cartridge joins that cartridge's next
// batch without an exchange.
func (r *Runner) Mounted(serial int64) bool {
	owner, ok := r.s.loadedBy[serial]
	return ok && owner != robotHeld
}

// CartridgeLost reports whether the robot has permanently lost the
// cartridge. A router consults it to steer requests at shards that
// still hold a live copy.
func (r *Runner) CartridgeLost(serial int64) bool { return r.s.dead[serial] }

// Headroom is the library's live capacity fraction — live drives over
// configured drives, 1 without lifecycle faults. It is the brownout
// admission state exposed to the routing tier: a router that divides a
// shard's load score by its headroom steers traffic away from degraded
// shards before their breakers start shedding it.
func (r *Runner) Headroom() float64 {
	if r.s.breaker == nil {
		return 1
	}
	return r.s.breaker.headroom()
}
