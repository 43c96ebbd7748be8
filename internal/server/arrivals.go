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
