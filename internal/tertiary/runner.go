package tertiary

import (
	"fmt"
	"math"

	"serpentine/internal/obs"
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
// bit-identical completions, metrics and wide events to that Run call:
// TestRunnerMatchesRun, FuzzRunnerAdvance and the fleet's single-shard
// equivalence test pin exactly this. AdvanceTo(t) steps through every
// instant before t and leaves the instant t itself to the next call, so
// a drive event that falls exactly on an arrival's timestamp is handled
// in one pass with that arrival, as in Run.
//
// Advancing a quiescent runner is free. After an AdvanceTo the loop
// has settled at its clock: nothing can happen before the next drive
// event, arrival or repair (wakeAt). A later AdvanceTo(t) with t at or
// before that instant and no offer in between returns at once without
// stepping. Stepping would only repeat the settled pass at the
// unchanged clock — wake with nothing due, admit with nothing arrived,
// dispatch to drives that already found no work — and stop again on
// the same wakeAt. The skipped call changes no state, so the output is
// byte-identical to a runner that steps on every call. A fleet with
// many shards and few arrivals per shard pays for stepping only the
// shards that have work.
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
// the loop next advances past its arrival time, or at Finish. Offer
// looks the object's ID up in the catalog; a caller that has its slot
// already uses OfferRouted.
func (r *Runner) Offer(req Request) error {
	return r.OfferRouted(req, r.s.l.Slot(req.ObjectID), RouteNone)
}

// OfferRouted is Offer for a caller that has already resolved the
// object's slot (Library.Slot), carrying the routing tier's decision
// for the request (RouteAffinity, RouteCrossShard, ...): pure annotation,
// stamped onto the request's wide event and nothing else. The slot is
// read off the catalog layout, not looked up again, and a slot that
// does not hold the request's object is an error.
func (r *Runner) OfferRouted(req Request, slot int, route Route) error {
	s := r.s
	if s.finished {
		return fmt.Errorf("tertiary: offer after Finish")
	}
	p, dl, err := s.l.resolve(len(s.arrivals), req, slot)
	if err != nil {
		return err
	}
	if req.Arrival < r.last || req.Arrival < s.now {
		return fmt.Errorf("tertiary: request offered at %g behind the clock (last offer %g, now %g)",
			req.Arrival, r.last, s.now)
	}
	r.last = req.Arrival
	p.route, p.ref = route, int32(len(s.arrivals))
	s.hasDeadlines = s.hasDeadlines || dl
	s.arrivals = append(s.arrivals, p)
	s.settled = false
	return nil
}

// AdvanceTo runs the event loop until nothing more can happen before
// t: offered arrivals are admitted and dispatched, drives complete and
// fail, rescues requeue. The instant t itself is left to the next call,
// so requests offered at t join the events due then. Times at or
// before the current clock are a no-op, never a rewind. When the loop
// has settled since the last offer and t is no later than its next
// possible event, the call returns without stepping (see Runner).
func (r *Runner) AdvanceTo(t float64) error {
	if r.s.finished {
		return fmt.Errorf("tertiary: advance after Finish")
	}
	if math.IsNaN(t) {
		return fmt.Errorf("tertiary: advance to NaN")
	}
	if r.s.settled && t <= r.s.wakeAt {
		return nil
	}
	if t < r.s.now {
		t = r.s.now
	}
	return r.s.stepTo(t)
}

// Finish drains the loop to quiescence and returns the completions (in
// completion order) and the run metrics, exactly as Run would. It
// sorts the terminal record into (Done, Seq) order (see Terminals).
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

// Completed projects the served entries recorded so far onto
// completions, in record order (see Terminals).
func (r *Runner) Completed() []Completion {
	var out []Completion
	for i := range r.s.rec {
		if t := &r.s.rec[i]; t.Outcome == OutcomeServed {
			out = append(out, r.s.completion(t))
		}
	}
	return out
}

// Terminals returns the run's terminal record, cache hits included.
// Until Finish it is in emission order, the order the loop decided the
// outcomes in: a batch's completions are priced when it dispatches, so
// Done may lie ahead of the clock. Finish sorts it by (Done, Seq). The
// slice is the runner's own: read-only, valid until the next advance,
// offer or hit, so an incremental reader drains it by index.
func (r *Runner) Terminals() []Terminal { return r.s.rec }

// Slot is the slot (Library.Slot) of a library entry's catalog object,
// resolved when the request was offered; -1 for a cache hit.
func (r *Runner) Slot(t *Terminal) int { return int(r.s.request(t).slot) }

// Object is the extent an entry's request last targeted: its catalog
// object, or the replica it was redirected to.
func (r *Runner) Object(t *Terminal) Object { return r.s.object(t) }

// Event projects an entry of the record onto its wide event, stamped
// with the library's shard and the entry's Seq, writing every field of
// *ev in place (Labels with nil): a caller fills a ring's slot
// (EventRing.Fill) without copying the event.
func (r *Runner) Event(t *Terminal, ev *obs.Event) { r.s.event(t, ev) }

// RecordHit enters a staging-tier cache hit into the terminal record:
// req for the catalog object in slot, routed as route, served off disk
// at done. Like OfferRouted it rejects a slot that does not hold the
// request's object. It draws the next emission ordinal, so hits and
// the library's own outcomes share one sequence. The event loop never
// sees the request, so no probe or metric changes.
func (r *Runner) RecordHit(req Request, slot int, route Route, done float64, attr Attribution) error {
	s := r.s
	obj, err := s.l.object(req, slot)
	if err != nil {
		return err
	}
	s.hits = append(s.hits, pending{req: req, ext: extentOf(obj), route: route, ref: int32(len(s.hits)), slot: -1})
	s.terminal(&s.hits[len(s.hits)-1], OutcomeServed, CacheDriveID, done, attr)
	s.rec[len(s.rec)-1].Cache = true
	return nil
}

// QueueDepth is the pending backlog: requests admitted to the
// per-cartridge backlog but not yet dispatched to a drive, plus those
// offered but not yet admitted. The offered ones count so that a router
// scoring several same-timestamp requests sees each earlier decision
// reflected in the load it scores the next one by. It is the signal a
// least-loaded router ranks shards with.
func (r *Runner) QueueDepth() int {
	return r.s.q.len() + len(r.s.arrivals) - r.s.next
}

// Mounted reports whether cartridge ci (Library.Cartridge) is
// currently loaded in one of the library's drives (a cartridge riding
// the robot's gripper after a rescue is not); false for an index
// outside the library. It is the affinity signal: a request routed to
// the shard already holding its cartridge joins that cartridge's next
// batch without an exchange.
func (r *Runner) Mounted(ci int) bool {
	return ci >= 0 && ci < len(r.s.loadedBy) && r.s.loadedBy[ci] >= 0
}

// CartridgeLost reports whether the robot has permanently lost
// cartridge ci (Library.Cartridge); false for an index outside the
// library. A router consults it to steer requests at shards that still
// hold a live copy.
func (r *Runner) CartridgeLost(ci int) bool {
	return ci >= 0 && ci < len(r.s.loadedBy) && r.s.lost(ci)
}

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
