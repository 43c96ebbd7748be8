package locate

import (
	"fmt"

	"serpentine/internal/geometry"
)

// Cost is the estimator interface the scheduling algorithms consume.
// *Model implements it; the Perturbed decorator implements it with
// injected error for the paper's sensitivity study (Figure 10).
type Cost interface {
	// LocateTime estimates the positioning time from the reading
	// start of src to the reading start of dst, in seconds.
	LocateTime(src, dst int) float64
	// ReadTime estimates the transfer time of one segment.
	ReadTime(lbn int) float64
	// FullReadTime estimates a sequential whole-tape pass plus the
	// trailing rewind.
	FullReadTime() float64
	// View exposes the geometry for structure-aware algorithms
	// (SLTF, SCAN, WEAVE bucket requests by section).
	View() *geometry.View
	// Segments returns the number of addressable segments.
	Segments() int
}

// Breakdown itemizes an estimated schedule execution.
type Breakdown struct {
	// Locate is the total positioning time.
	Locate float64
	// Read is the total transfer time.
	Read float64
	// MaxLocate is the longest single locate in the schedule.
	MaxLocate float64
	// Locates is the number of locate operations performed (one per
	// scheduled request).
	Locates int
}

// Total is the estimated schedule execution time.
func (b Breakdown) Total() float64 { return b.Locate + b.Read }

// PerLocate is the mean time per locate, the paper's Figure 4/5
// metric: total schedule execution time divided by the number of
// requests.
func (b Breakdown) PerLocate() float64 {
	if b.Locates == 0 {
		return 0
	}
	return b.Total() / float64(b.Locates)
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.1fs locate=%.1fs read=%.1fs n=%d per-locate=%.2fs",
		b.Total(), b.Locate, b.Read, b.Locates, b.PerLocate())
}

// Perturbed decorates a Cost with the systematic error of the paper's
// Figure 10 sensitivity experiment: locate times are returned E
// seconds high when the destination segment number is even and E
// seconds low when it is odd (never below zero). The average injected
// error is zero, but a greedy scheduler can be led astray edge by
// edge.
type Perturbed struct {
	// Base is the unperturbed estimator.
	Base Cost
	// E is the injected error magnitude in seconds.
	E float64
}

// LocateTime implements Cost with the alternating-sign error.
func (p *Perturbed) LocateTime(src, dst int) float64 {
	t := p.Base.LocateTime(src, dst)
	if dst%2 == 0 {
		t += p.E
	} else {
		t -= p.E
	}
	if t < 0 {
		t = 0
	}
	return t
}

// ReadTime delegates to the base estimator.
func (p *Perturbed) ReadTime(lbn int) float64 { return p.Base.ReadTime(lbn) }

// FullReadTime delegates to the base estimator.
func (p *Perturbed) FullReadTime() float64 { return p.Base.FullReadTime() }

// View delegates to the base estimator.
func (p *Perturbed) View() *geometry.View { return p.Base.View() }

// Segments delegates to the base estimator.
func (p *Perturbed) Segments() int { return p.Base.Segments() }
