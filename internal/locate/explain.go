package locate

import (
	"fmt"

	"serpentine/internal/geometry"
)

// Explanation is a human-readable decomposition of one locate
// estimate: which of the paper's cases applies and how the time
// breaks down into track switch, reversals, scan and read-approach
// components. The tapesched -explain flag prints these.
type Explanation struct {
	Src, Dst geometry.Placement
	Maneuver Maneuver

	// Component times in seconds; Total is their sum and equals
	// LocateTime(src, dst).
	SwitchSec   float64
	ReverseSec  float64
	OverheadSec float64
	ScanSec     float64
	ReadSec     float64
	Total       float64
}

// Explain decomposes the locate from src to dst.
func (m *Model) Explain(src, dst int) Explanation {
	mv := m.Motion(src, dst)
	e := Explanation{Src: mv.From, Dst: mv.To, Maneuver: mv.Maneuver}
	mo := e.Maneuver
	switch mo.Case {
	case CaseNone:
	case Case1:
		e.ReadSec = m.p.ReadSecPerSection * mo.ReadSections
	default:
		e.OverheadSec = m.p.OverheadSec
		e.ReverseSec = float64(mo.Reversals) * m.p.ReverseSec
		e.ScanSec = m.p.ScanSecPerSection * mo.ScanSections
		e.ReadSec = m.p.ReadSecPerSection * mo.ReadSections
		if mo.TrackSwap {
			e.SwitchSec = m.p.TrackSwitchSec
		}
	}
	e.Total = e.SwitchSec + e.ReverseSec + e.OverheadSec + e.ScanSec + e.ReadSec
	return e
}

// String renders the explanation on one line, in the vocabulary of
// the paper's Section 3.
func (e Explanation) String() string {
	if e.Maneuver.Case == CaseNone {
		return fmt.Sprintf("segment %d: head already positioned", e.Dst.LBN)
	}
	if e.Maneuver.Case == Case1 {
		return fmt.Sprintf(
			"%d->%d [case1]: read forward %.2f sections on track %d: %.1fs",
			e.Src.LBN, e.Dst.LBN, e.Maneuver.ReadSections, e.Dst.Track, e.Total)
	}
	swap := "same track"
	if e.Maneuver.TrackSwap {
		swap = fmt.Sprintf("switch track %d->%d (%.1fs)", e.Src.Track, e.Dst.Track, e.SwitchSec)
	}
	return fmt.Sprintf(
		"%d->%d [%s]: %s, %d reversal(s) (%.1fs), scan %.2f sections (%.1fs), read %.2f sections (%.1fs), overhead %.1fs: %.1fs",
		e.Src.LBN, e.Dst.LBN, e.Maneuver.Case, swap,
		e.Maneuver.Reversals, e.ReverseSec,
		e.Maneuver.ScanSections, e.ScanSec,
		e.Maneuver.ReadSections, e.ReadSec,
		e.OverheadSec, e.Total)
}
