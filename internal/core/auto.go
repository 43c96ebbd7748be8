package core

// Auto encodes the paper's bottom-line recommendation (Section 8):
// "OPT is recommended for scheduling up to 10 locates. Then, use the
// LOSS algorithm for up to 1536 uniformly randomly distributed
// requests. For more than 1536 requests just read the entire tape."
//
// Rather than hard-coding the 1536 crossover — which is specific to
// the DLT4000 and to uniformly random requests — Auto evaluates the
// LOSS schedule against the whole-tape read time and picks whichever
// is estimated faster, reproducing the paper's rule on the paper's
// workload while adapting to other geometries and skewed workloads.
type Auto struct {
	// OptLimit is the largest batch handed to OPT; the paper
	// recommends 10.
	OptLimit int
}

// NewAuto returns the recommended policy with OptLimit 10.
func NewAuto() Auto { return Auto{OptLimit: 10} }

// Name returns "AUTO".
func (Auto) Name() string { return "AUTO" }

// Schedule dispatches to OPT, LOSS or READ.
func (a Auto) Schedule(p *Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	limit := a.OptLimit
	if limit <= 0 {
		limit = 10
	}
	// Dispatch on the limit OPT actually accepts: NewOPT caps it.
	if opt := NewOPT(limit); len(p.Requests) <= opt.Limit() {
		return opt.Schedule(p)
	}
	// Beyond ~2048 requests the dense quadratic matrix stops paying
	// for itself (and the whole-tape pass is close anyway): coalesce
	// first, as the paper recommends for LOSS.
	var lossPlan Plan
	var err error
	if len(p.Requests) <= 2048 {
		lossPlan, err = NewLOSS().Schedule(p)
	} else {
		lossPlan, err = NewLOSSCoalesced(DefaultCoalesceThreshold).Schedule(p)
	}
	if err != nil {
		return Plan{}, err
	}
	if lossPlan.Estimate(p).Total() <= p.Cost.FullReadTime() {
		return lossPlan, nil
	}
	return Read{}.Schedule(p)
}
