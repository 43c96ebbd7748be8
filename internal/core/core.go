// Package core implements the paper's contribution: static scheduling
// algorithms for batches of random I/O requests on serpentine tape
// (Hillyer & Silberschatz, SIGMOD 1996, Section 4).
//
// Eight algorithms from the paper are provided — READ, FIFO, OPT,
// SORT, SLTF, SCAN, WEAVE and LOSS — plus the segment-coalescing
// preprocessing both SLTF and LOSS can use, the sparse-graph LOSS
// variant the paper sketches as future work, an or-opt local
// improvement pass, and the Auto policy that encodes the paper's
// bottom-line recommendation (OPT for up to 10 requests, LOSS up to
// ~1536, READ beyond).
//
// Every scheduler consumes a Problem (initial head position, request
// list, cost model) and produces a Plan whose Order is a permutation
// of the requests.
package core

import (
	"errors"
	"fmt"
	"sort"

	"serpentine/internal/locate"
)

// Problem is one scheduling instance: the head starts at the reading
// start of segment Start, and every segment in Requests must be
// retrieved. Cost supplies the locate-time estimates the scheduler
// optimizes against (the paper's "essential ingredient").
type Problem struct {
	// Start is the initial head position as a segment number. The
	// paper's two scenarios are a random segment (batches executed
	// back to back) and 0 (a freshly loaded cartridge).
	Start int

	// Requests lists the segments to retrieve. Order carries no
	// meaning except to FIFO. Duplicates are tolerated but not
	// optimized.
	Requests []int

	// ReadLen is the number of consecutive segments transferred per
	// request; 0 means 1 (the paper's simplifying assumption). The
	// utilization study (Figure 7) uses multi-segment requests.
	ReadLen int

	// Cost estimates locate times.
	Cost locate.Cost
}

// readLen returns the effective per-request transfer length.
func (p *Problem) readLen() int {
	if p.ReadLen <= 0 {
		return 1
	}
	return p.ReadLen
}

// headAfter returns the head position after transferring a request
// that starts at lbn.
func (p *Problem) headAfter(lbn int) int {
	h := lbn + p.readLen()
	if max := p.Cost.Segments() - 1; h > max {
		h = max
	}
	return h
}

// Validate checks that the problem is well formed.
func (p *Problem) Validate() error {
	if p.Cost == nil {
		return errors.New("core: Problem.Cost is nil")
	}
	n := p.Cost.Segments()
	if p.Start < 0 || p.Start >= n {
		return fmt.Errorf("core: start position %d out of range [0,%d)", p.Start, n)
	}
	last := n - p.readLen()
	for i, r := range p.Requests {
		if r < 0 || r > last {
			return fmt.Errorf("core: request %d (segment %d) out of range [0,%d]", i, r, last)
		}
	}
	return nil
}

// Plan is a scheduler's output.
type Plan struct {
	// Order is the retrieval order: a permutation of the problem's
	// Requests.
	Order []int

	// WholeTape marks a READ plan: execution is one sequential pass
	// over the entire tape (collecting the requests on the way)
	// rather than a sequence of locates. Order is then the requests
	// in LBN order, which is the order the pass encounters them.
	WholeTape bool
}

// Estimate evaluates the plan against a cost model: the estimated
// execution time breakdown for the whole batch.
func (pl *Plan) Estimate(p *Problem) locate.Breakdown {
	if pl.WholeTape {
		return locate.Breakdown{
			Locate:  p.Cost.FullReadTime(),
			Locates: len(pl.Order),
		}
	}
	return estimateSized(p, pl.Order)
}

// estimateSized walks the plan: from the start position, locate to
// each request in turn and read its ReadLen segments, leaving the head
// at the reading start of the segment after the last one read.
func estimateSized(p *Problem, order []int) locate.Breakdown {
	var b locate.Breakdown
	head := p.Start
	rl := p.readLen()
	for _, d := range order {
		lt := p.Cost.LocateTime(head, d)
		b.Locate += lt
		if lt > b.MaxLocate {
			b.MaxLocate = lt
		}
		for k := 0; k < rl; k++ {
			b.Read += p.Cost.ReadTime(d + k)
		}
		b.Locates++
		head = p.headAfter(d)
	}
	return b
}

// FinalHead returns the head position after executing the plan, for
// chaining batches.
func (pl *Plan) FinalHead(p *Problem) int {
	if len(pl.Order) == 0 {
		return p.Start
	}
	if pl.WholeTape {
		// A full pass ends at the reading end of the last track and
		// rewinds; the next batch starts from the beginning of tape.
		return 0
	}
	return p.headAfter(pl.Order[len(pl.Order)-1])
}

// Scheduler produces retrieval plans.
type Scheduler interface {
	// Name identifies the algorithm in experiment output ("LOSS",
	// "SLTF", ...).
	Name() string
	// Schedule orders the problem's requests. Implementations must
	// return a permutation of p.Requests.
	Schedule(p *Problem) (Plan, error)
}

// CheckPermutation verifies that order is a permutation of requests;
// every scheduler test and the simulator's paranoid mode use it.
func CheckPermutation(requests, order []int) error {
	if len(requests) != len(order) {
		return fmt.Errorf("core: schedule has %d entries, want %d", len(order), len(requests))
	}
	want := make(map[int]int, len(requests))
	for _, r := range requests {
		want[r]++
	}
	for _, o := range order {
		want[o]--
		if want[o] < 0 {
			return fmt.Errorf("core: schedule contains segment %d more often than requested", o)
		}
	}
	return nil
}

// sortedCopy returns the requests in ascending segment order.
func sortedCopy(requests []int) []int {
	out := make([]int, len(requests))
	copy(out, requests)
	sort.Ints(out)
	return out
}

// All returns one instance of every scheduler the paper evaluates, in
// the order the paper lists them. OPT is limited to optLimit requests
// (it degrades to returning an error above that, as in the paper,
// which only runs it to 12).
func All(optLimit int) []Scheduler {
	return []Scheduler{
		Read{},
		FIFO{},
		NewOPT(optLimit),
		Sort{},
		NewSLTF(),
		Scan{},
		Weave{},
		NewLOSS(),
	}
}

// ByName returns the named scheduler with default construction, or an
// error listing the valid names. Recognized names (case-sensitive):
// READ, FIFO, OPT, SORT, SLTF, SLTF-C, SCAN, WEAVE, LOSS, LOSS-C,
// LOSS-SPARSE, AUTO.
func ByName(name string) (Scheduler, error) {
	switch name {
	case "READ":
		return Read{}, nil
	case "FIFO":
		return FIFO{}, nil
	case "OPT":
		return NewOPT(16), nil
	case "SORT":
		return Sort{}, nil
	case "SLTF":
		return NewSLTF(), nil
	case "SLTF-C":
		return NewSLTFCoalesced(DefaultCoalesceThreshold), nil
	case "SCAN":
		return Scan{}, nil
	case "WEAVE":
		return Weave{}, nil
	case "LOSS":
		return NewLOSS(), nil
	case "LOSS-C":
		return NewLOSSCoalesced(DefaultCoalesceThreshold), nil
	case "LOSS-SPARSE":
		return NewSparseLOSS(), nil
	case "AUTO":
		return NewAuto(), nil
	}
	return nil, fmt.Errorf("core: unknown scheduler %q (want READ, FIFO, OPT, SORT, SLTF, SLTF-C, SCAN, WEAVE, LOSS, LOSS-C, LOSS-SPARSE or AUTO)", name)
}
