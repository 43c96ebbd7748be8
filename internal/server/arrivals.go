package server

import (
	"fmt"

	"serpentine/internal/workload"
)

// Request is one retrieval arriving at the service: which segment,
// and when on the virtual clock it showed up.
type Request struct {
	// ID numbers the request within its stream, in arrival order.
	ID int
	// Segment is the tape segment to retrieve.
	Segment int
	// ArrivalSec is the arrival time on the virtual clock.
	ArrivalSec float64
	// Deadline is the absolute virtual time after which serving the
	// request is pointless; a still-queued request past it is shed
	// rather than dispatched. 0 means no deadline. The recommended
	// default budget is sim.DefaultRequestTimeoutSec past arrival —
	// the same constant that bounds the executor's per-request drive
	// time, so the admission and execution timeout paths cannot
	// silently diverge (see Config.DeadlineSec).
	Deadline float64
	// BestEffort marks work the service may shed first under
	// degraded capacity: the brownout admission state (Breaker)
	// rejects best-effort arrivals while any drive is down and all
	// arrivals while every drive is down.
	BestEffort bool
}

// Expired reports whether the request's deadline (if any) has passed
// at virtual time now.
func (r Request) Expired(now float64) bool {
	return r.Deadline > 0 && now > r.Deadline
}

// PoissonStream builds n requests with Poisson arrival times at
// ratePerSec and segments drawn from gen — the online analogue of the
// paper's uniformly random batches. Times and segments come from two
// independent lrand48 streams derived from seed, so the same seed
// reproduces the same trace regardless of how it is consumed.
func PoissonStream(ratePerSec float64, n int, seed int64, gen workload.Generator) ([]Request, error) {
	if gen == nil {
		return nil, fmt.Errorf("server: PoissonStream needs a segment generator")
	}
	times, err := workload.PoissonArrivals(ratePerSec, n, seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: i, Segment: gen.Batch(1)[0], ArrivalSec: times[i]}
	}
	return reqs, nil
}
