// Package locate implements the Hillyer-Silberschatz locate-time
// model for serpentine tape (SIGMOD 1996, Section 3; details in the
// companion Sigmetrics paper [HS96]).
//
// The model answers one question: starting with the head positioned
// at the reading start of segment src, how long does the drive take
// to position to the reading start of segment dst? The answer is a
// discontinuous, non-monotonic, piecewise-linear function of the two
// segments' physical placements, built from three motions:
//
//   - a track switch (head step) when src and dst are on different
//     tracks;
//   - a scan at the fast transport speed from the head's physical
//     position to the landing key point: the key point two before dst
//     in reading order (the beginning of the track when dst lies in
//     the first two reading-order sections), with a fixed penalty for
//     each time the transport must reverse its physical direction;
//   - a read-speed approach from the landing key point forward to
//     dst, covering between one and two sections.
//
// The single exception is short forward motion: when dst is on the
// same track, ahead of src, and within the same or the following two
// reading-order sections, the drive simply reads forward (case 1).
//
// This construction reproduces the paper's seven qualitative cases
// (see Case and Classify) and its aggregate statistics: a maximum
// locate of ~180 s, a mean of ~96.5 s from the beginning of tape to a
// random segment, ~72.4 s between two random segments, a ~25 s
// peak-to-dip drop at section boundaries of reverse tracks and ~5 s
// in forward tracks, and a ~14,000 s full-tape read.
package locate

import (
	"fmt"
	"math"

	"serpentine/internal/geometry"
)

// Model evaluates locate times over a reading-order geometry. Build
// it from a tape's true view (the emulated drive's ground truth) or
// from a characterized key-point table (the host's estimate).
//
// A Model is immutable and safe for concurrent use, and costs nothing
// to build: LocateTime, ReadTime and RewindTime read the view's
// per-section records (geometry.Section), which the view builds once,
// and compute a segment's position with the same expression
// View.Place uses. The original decomposition over placements is
// retained for Classify, Maneuver and the Reference estimator the
// equivalence tests compare against.
type Model struct {
	view *geometry.View
	p    geometry.Params
}

// NewModel returns a model over the given geometry.
func NewModel(view *geometry.View) *Model {
	return &Model{view: view, p: view.Params()}
}

// FromKeyPoints builds the host-side model for a characterized tape.
func FromKeyPoints(kp *geometry.KeyPointTable) (*Model, error) {
	v, err := kp.View()
	if err != nil {
		return nil, err
	}
	return NewModel(v), nil
}

// View returns the geometry the model evaluates over.
func (m *Model) View() *geometry.View { return m.view }

// Segments returns the number of segments addressable on the tape.
func (m *Model) Segments() int { return m.view.Segments() }

// Case identifies which of the paper's locate-time cases applies to a
// (src, dst) pair. Cases 1-7 follow the numbering in Section 3 of the
// paper; CaseNone is src == dst.
type Case int

const (
	// CaseNone: destination equals source; no motion.
	CaseNone Case = iota
	// Case1: same track, same or one of the following two sections:
	// read forward.
	Case1
	// Case2: more than one section forward in the same or a
	// co-directional track: scan forward to the key point two before
	// the destination, then read forward.
	Case2
	// Case3: backwards in the same or a co-directional track (not
	// into the first two sections), or forwards up to one section in
	// a co-directional track: scan backward to the key point two
	// before the destination, then read forward.
	Case3
	// Case4: backwards in the same or a co-directional track into
	// the first or second section: scan backward to the beginning of
	// the track, then read forward.
	Case4
	// Case5: anti-directional track, landing reached by proceeding
	// forward (in the destination track's reading order) two or more
	// sections: scan forward to the key point two before the
	// destination, then read forward.
	Case5
	// Case6: anti-directional track, destination zero or one section
	// forward, or backward but not into the first two sections: scan
	// backward to the key point two before the destination, then
	// read forward.
	Case6
	// Case7: anti-directional track, destination in the first or
	// second section: scan backward to the beginning of the track,
	// then read forward.
	Case7
)

// String names the case as in the paper.
func (c Case) String() string {
	if c == CaseNone {
		return "none"
	}
	if c >= Case1 && c <= Case7 {
		return fmt.Sprintf("case%d", int(c))
	}
	return fmt.Sprintf("Case(%d)", int(c))
}

// motion is the decomposed locate maneuver shared by the estimator
// and the classifier.
type motion struct {
	c          Case
	trackSwap  bool
	reversals  int
	scanDist   float64 // section units at scan speed
	readDist   float64 // section units at read speed
	landingPos float64
}

func dirSign(d geometry.Direction) float64 {
	if d == geometry.Forward {
		return 1
	}
	return -1
}

// decompose computes the maneuver from src to dst. Callers guarantee
// src != dst.
func (m *Model) decompose(sp, dp geometry.Placement) motion {
	tv := m.view.Track(dp.Track)

	// Case 1: read forward on the same track.
	if sp.Track == dp.Track && dp.LBN > sp.LBN && dp.Section <= sp.Section+2 {
		return motion{
			c:        Case1,
			readDist: math.Abs(dp.Pos - sp.Pos),
		}
	}

	// Landing key point: two before the destination in reading
	// order; the beginning of the track when the destination is in
	// the first two reading-order sections.
	var landing float64
	toTrackStart := dp.Section <= 1
	if toTrackStart {
		landing = tv.BoundPos[0]
	} else {
		landing = tv.BoundPos[dp.Section-1]
	}

	mo := motion{
		trackSwap:  sp.Track != dp.Track,
		scanDist:   math.Abs(landing - sp.Pos),
		readDist:   math.Abs(dp.Pos - landing),
		landingPos: landing,
	}

	// Reversal accounting: the head was moving in the source
	// track's reading direction; it must end up moving in the
	// destination track's reading direction; in between it scans
	// toward the landing point.
	const eps = 1e-12
	scanDir := dirSign(sp.Dir)
	if mo.scanDist > eps {
		if landing > sp.Pos {
			scanDir = 1
		} else {
			scanDir = -1
		}
	}
	if scanDir != dirSign(sp.Dir) {
		mo.reversals++
	}
	if dirSign(dp.Dir) != scanDir {
		mo.reversals++
	}

	// Classification per the paper's wording: the scan direction is
	// named relative to the destination track's reading order.
	co := sp.Dir == dp.Dir
	scanForward := scanDir == dirSign(dp.Dir)
	switch {
	case toTrackStart && co:
		mo.c = Case4
	case toTrackStart:
		mo.c = Case7
	case scanForward && co:
		mo.c = Case2
	case scanForward:
		mo.c = Case5
	case co:
		mo.c = Case3
	default:
		mo.c = Case6
	}
	return mo
}

// Classify returns which of the paper's cases governs the locate from
// src to dst.
func (m *Model) Classify(src, dst int) Case {
	if src == dst {
		return CaseNone
	}
	return m.decompose(m.view.Place(src), m.view.Place(dst)).c
}

// Maneuver describes the decomposed motion of a locate: which case
// applies and how far the transport scans and reads. The drive
// emulator uses it to shape its deviations from the model.
type Maneuver struct {
	// Case is the paper's case number.
	Case Case
	// TrackSwap reports whether the head changes tracks.
	TrackSwap bool
	// Reversals counts physical direction changes.
	Reversals int
	// ScanSections and ReadSections are the distances covered at
	// each speed, in section units.
	ScanSections float64
	ReadSections float64
}

// Maneuver decomposes the locate from src to dst.
func (m *Model) Maneuver(src, dst int) Maneuver {
	if src == dst {
		return Maneuver{Case: CaseNone}
	}
	return m.decompose(m.view.Place(src), m.view.Place(dst)).maneuver()
}

func (mo motion) maneuver() Maneuver {
	return Maneuver{
		Case:         mo.c,
		TrackSwap:    mo.trackSwap,
		Reversals:    mo.reversals,
		ScanSections: mo.scanDist,
		ReadSections: mo.readDist,
	}
}

// Motion is one locate evaluated whole: LocateTime, Maneuver and the
// view's Place of both endpoints, bit for bit.
type Motion struct {
	Sec      float64
	Maneuver Maneuver
	From, To geometry.Placement
}

// Motion evaluates the locate from src to dst, looking each endpoint's
// section up once where its three parts would look it up three times.
func (m *Model) Motion(src, dst int) Motion {
	ss, ds := m.view.SectionOf(src), m.view.SectionOf(dst)
	mv := Motion{From: m.view.PlaceIn(ss, src), To: m.view.PlaceIn(ds, dst)}
	if src == dst {
		mv.Maneuver.Case = CaseNone
		return mv
	}
	mv.Sec = m.locate(ss, mv.From.Pos, src, ds, mv.To.Pos, dst)
	mv.Maneuver = m.decompose(mv.From, mv.To).maneuver()
	return mv
}

// LocateTime returns the modeled time, in seconds, to position the
// head from the reading start of segment src to the reading start of
// segment dst. LocateTime(x, x) is 0: the head is already there.
//
// The function is asymmetric: LocateTime(x, y) typically differs from
// LocateTime(y, x) by tens of seconds, as the paper reports.
//
// This is the fast path over the view's section records; it evaluates
// the same piecewise expression as the decomposition (see
// referenceLocateTime), bit-for-bit.
func (m *Model) LocateTime(src, dst int) float64 {
	if src == dst {
		return 0
	}
	ss, ds := m.view.SectionOf(src), m.view.SectionOf(dst)
	return m.locate(ss, ss.Pos(src), src, ds, ds.Pos(dst), dst)
}

// locate is LocateTime for src != dst, from the two segments' section
// records and positions.
func (m *Model) locate(ss *geometry.Section, sp float64, src int, ds *geometry.Section, dp float64, dst int) float64 {
	// Case 1: read forward on the same track.
	if ss.Track == ds.Track && dst > src && ds.Logical <= ss.Logical+2 {
		return m.p.ReadSecPerSection * math.Abs(dp-sp)
	}

	landing := ds.Landing
	scanDist := math.Abs(landing - sp)
	readDist := math.Abs(dp - landing)

	const eps = 1e-12
	srcFwd := ss.Dir == geometry.Forward
	scanFwd := srcFwd
	if scanDist > eps {
		scanFwd = landing > sp
	}
	var reversals float64
	if scanFwd != srcFwd {
		reversals++
	}
	if (ds.Dir == geometry.Forward) != scanFwd {
		reversals++
	}
	t := m.p.OverheadSec +
		reversals*m.p.ReverseSec +
		m.p.ScanSecPerSection*scanDist +
		m.p.ReadSecPerSection*readDist
	if ss.Track != ds.Track {
		t += m.p.TrackSwitchSec
	}
	return t
}

// referenceLocateTime evaluates the locate time through the original
// piecewise decomposition. The equivalence tests assert it agrees
// bit-for-bit with the fast-path LocateTime on every pair they
// probe.
func (m *Model) referenceLocateTime(src, dst int) float64 {
	if src == dst {
		return 0
	}
	mo := m.decompose(m.view.Place(src), m.view.Place(dst))
	if mo.c == Case1 {
		return m.p.ReadSecPerSection * mo.readDist
	}
	t := m.p.OverheadSec +
		float64(mo.reversals)*m.p.ReverseSec +
		m.p.ScanSecPerSection*mo.scanDist +
		m.p.ReadSecPerSection*mo.readDist
	if mo.trackSwap {
		t += m.p.TrackSwitchSec
	}
	return t
}

// ReadTime returns the time, in seconds, to read segment lbn once the
// head is positioned at its reading start (the physical span of the
// segment at read speed; ~22 ms for a 32 KB DLT4000 segment,
// equivalent to the 1.5 MB/s sustained rate).
func (m *Model) ReadTime(lbn int) float64 {
	return m.view.SectionOf(lbn).ReadSec
}

// referenceReadTime recomputes ReadTime from the geometry.
func (m *Model) referenceReadTime(lbn int) float64 {
	p := m.view.Place(lbn)
	tv := m.view.Track(p.Track)
	span := math.Abs(tv.BoundPos[p.Section+1] - tv.BoundPos[p.Section])
	count := tv.SectionCount(p.Section)
	return m.p.ReadSecPerSection * span / float64(count)
}

// RewindTime returns the time to rewind from the reading start of
// segment lbn to the physical beginning of tape. Single-reel
// cartridges must rewind to eject, so batch executions on a robot end
// with one of these.
func (m *Model) RewindTime(lbn int) float64 {
	s := m.view.SectionOf(lbn)
	t := m.p.OverheadSec + m.p.ScanSecPerSection*s.Pos(lbn)
	if s.Dir == geometry.Forward {
		// The head was moving away from the beginning of tape.
		t += m.p.ReverseSec
	}
	return t
}

// FullReadTime returns the time to read the entire tape sequentially
// from the beginning: every track at read speed plus the track
// switches. The head finishes at the reading end of the last track
// (the physical beginning of tape when the track count is even, so
// the trailing rewind is nearly free).
func (m *Model) FullReadTime() float64 {
	total := 0.0
	for t := 0; t < m.view.Tracks(); t++ {
		tv := m.view.Track(t)
		s := tv.Sections()
		total += math.Abs(tv.BoundPos[s]-tv.BoundPos[0]) * m.p.ReadSecPerSection
		if t > 0 {
			total += m.p.TrackSwitchSec
		}
	}
	// Rewind from wherever the last track ends.
	last := m.view.Track(m.view.Tracks() - 1)
	endPos := last.BoundPos[last.Sections()]
	total += m.p.OverheadSec + m.p.ScanSecPerSection*endPos
	return total
}
