package geometry

import (
	"fmt"
	"sync"
)

// TrackView is the reading-order geometry of one track. Sections are
// indexed in reading order (logical index 0 is the first section the
// head crosses when reading the track); for forward tracks the
// logical index equals the physical section number, for reverse
// tracks logical index l corresponds to physical section S-1-l.
type TrackView struct {
	// Dir is the reading direction of the track.
	Dir Direction

	// BoundLBN[l] is the absolute segment number of the first
	// segment of logical section l; BoundLBN[S] is one past the last
	// segment of the track. Strictly increasing.
	BoundLBN []int

	// BoundPos[l] is the physical tape position (section units from
	// the beginning of tape) of the reading-order start of logical
	// section l; BoundPos[S] is the reading-order end of the track.
	// Increasing for forward tracks, decreasing for reverse tracks.
	BoundPos []float64
}

// Sections returns the number of sections in the track.
func (t *TrackView) Sections() int { return len(t.BoundLBN) - 1 }

// StartLBN returns the first absolute segment number of the track.
func (t *TrackView) StartLBN() int { return t.BoundLBN[0] }

// EndLBN returns one past the last absolute segment number.
func (t *TrackView) EndLBN() int { return t.BoundLBN[len(t.BoundLBN)-1] }

// SectionCount returns the number of segments in logical section l.
func (t *TrackView) SectionCount(l int) int {
	return t.BoundLBN[l+1] - t.BoundLBN[l]
}

// View is the reading-order geometry of a whole tape: what the locate
// time model needs to place any segment and find the key points
// around it. A View is immutable once built.
type View struct {
	params Params
	tracks []TrackView
	total  int

	// secIdx[lbn] is track*SectionsPerTrack + logical section, built
	// lazily once so Place and SectionIndex run without binary
	// searches. 4 bytes per segment (~2.4 MB for a DLT4000 view).
	idxOnce sync.Once
	secIdx  []int32
}

// Params returns the format profile the view was built with.
func (v *View) Params() Params { return v.params }

// WithParams returns a view sharing this view's layout but carrying
// different timing parameters. The drive emulator uses it to apply a
// cartridge's hidden personality (slightly skewed transport speeds)
// to the true geometry.
func (v *View) WithParams(p Params) *View {
	return &View{params: p, tracks: v.tracks, total: v.total}
}

// Segments returns the total number of segments on the tape.
func (v *View) Segments() int { return v.total }

// Tracks returns the number of tracks.
func (v *View) Tracks() int { return len(v.tracks) }

// Track returns the reading-order geometry of track t.
func (v *View) Track(t int) *TrackView { return &v.tracks[t] }

// Placement locates one segment in reading-order coordinates.
type Placement struct {
	// LBN is the absolute segment number.
	LBN int
	// Track is the track number.
	Track int
	// Dir is the reading direction of the track.
	Dir Direction
	// Section is the logical (reading-order) section index.
	Section int
	// PhysSection is the physical section number (0 closest to the
	// beginning of tape), as used by the paper's (track, section,
	// segment) coordinate system.
	PhysSection int
	// Frac is the fractional position of the segment within its
	// logical section, in [0, 1).
	Frac float64
	// Pos is the physical position of the segment on tape, in
	// section units from the beginning of tape.
	Pos float64
}

// sectionTable returns the dense segment -> (track, logical section)
// index, building it on first use. The table depends only on the
// track layout, which is immutable, so concurrent builds via the Once
// are safe and derived views (WithParams) simply rebuild their own.
func (v *View) sectionTable() []int32 {
	v.idxOnce.Do(func() {
		spt := v.params.SectionsPerTrack
		tab := make([]int32, v.total)
		for t := range v.tracks {
			tv := &v.tracks[t]
			for l := 0; l < tv.Sections(); l++ {
				idx := int32(t*spt + l)
				for lbn := tv.BoundLBN[l]; lbn < tv.BoundLBN[l+1]; lbn++ {
					tab[lbn] = idx
				}
			}
		}
		v.secIdx = tab
	})
	return v.secIdx
}

// Place returns the placement of segment lbn. It panics if lbn is out
// of range; schedulers validate requests before calling.
func (v *View) Place(lbn int) Placement {
	if lbn < 0 || lbn >= v.total {
		panic(fmt.Sprintf("geometry: segment %d out of range [0,%d)", lbn, v.total))
	}
	idx := int(v.sectionTable()[lbn])
	spt := v.params.SectionsPerTrack
	t, l := idx/spt, idx%spt
	tv := &v.tracks[t]
	count := tv.SectionCount(l)
	frac := (float64(lbn-tv.BoundLBN[l]) + 0.5) / float64(count)
	pos := tv.BoundPos[l] + frac*(tv.BoundPos[l+1]-tv.BoundPos[l])
	phys := l
	if tv.Dir == Reverse {
		phys = tv.Sections() - 1 - l
	}
	return Placement{
		LBN:         lbn,
		Track:       t,
		Dir:         tv.Dir,
		Section:     l,
		PhysSection: phys,
		Frac:        frac,
		Pos:         pos,
	}
}

// Coord is the paper's (track, section, segment) physical coordinate
// for a segment: section 0 and segment 0 within a section are the
// ones physically closest to the beginning of the tape.
type Coord struct {
	Track   int
	Section int // physical section number
	Segment int // physical index within the section
}

// Coord converts an absolute segment number to physical coordinates.
func (v *View) Coord(lbn int) Coord {
	p := v.Place(lbn)
	tv := &v.tracks[p.Track]
	off := lbn - tv.BoundLBN[p.Section]
	if tv.Dir == Reverse {
		// Within a logical section of a reverse track, increasing
		// LBN runs toward the beginning of tape, i.e. decreasing
		// physical segment index.
		off = tv.SectionCount(p.Section) - 1 - off
	}
	return Coord{Track: p.Track, Section: p.PhysSection, Segment: off}
}

// LBN converts physical coordinates back to an absolute segment
// number. It panics if the coordinate is out of range.
func (v *View) LBN(c Coord) int {
	if c.Track < 0 || c.Track >= len(v.tracks) {
		panic(fmt.Sprintf("geometry: track %d out of range", c.Track))
	}
	tv := &v.tracks[c.Track]
	s := tv.Sections()
	if c.Section < 0 || c.Section >= s {
		panic(fmt.Sprintf("geometry: section %d out of range", c.Section))
	}
	l := c.Section
	if tv.Dir == Reverse {
		l = s - 1 - c.Section
	}
	count := tv.SectionCount(l)
	if c.Segment < 0 || c.Segment >= count {
		panic(fmt.Sprintf("geometry: segment %d out of section range [0,%d)", c.Segment, count))
	}
	off := c.Segment
	if tv.Dir == Reverse {
		off = count - 1 - off
	}
	return tv.BoundLBN[l] + off
}

// SectionIndex returns a dense index identifying the (track, logical
// section) cell containing lbn, in [0, Tracks*SectionsPerTrack).
// Scheduling algorithms use it to bucket requests by section.
func (v *View) SectionIndex(lbn int) int {
	if lbn < 0 || lbn >= v.total {
		panic(fmt.Sprintf("geometry: segment %d out of range [0,%d)", lbn, v.total))
	}
	return int(v.sectionTable()[lbn])
}

// SectionStartLBN returns the first LBN of logical section l of track
// t: the key point at the reading-order start of that section.
func (v *View) SectionStartLBN(t, l int) int {
	return v.tracks[t].BoundLBN[l]
}

// KeyPointTable is the per-tape characterization data the paper's
// model is parameterized by: for each track, the absolute segment
// numbers of the reading-order section boundaries (the track
// beginning, the 13 interior dips, and the track end).
type KeyPointTable struct {
	// Params carries the format profile (section counts, speeds).
	Params Params
	// Bound[t][l] is the first LBN of logical section l of track t;
	// Bound[t][S] is one past the track's last LBN.
	Bound [][]int
	// Total is the number of segments on the tape.
	Total int
}

// Validate checks structural invariants of the table.
func (k *KeyPointTable) Validate() error {
	if len(k.Bound) != k.Params.Tracks {
		return fmt.Errorf("geometry: key point table has %d tracks, profile says %d", len(k.Bound), k.Params.Tracks)
	}
	prevEnd := 0
	for t, b := range k.Bound {
		if len(b) != k.Params.SectionsPerTrack+1 {
			return fmt.Errorf("geometry: track %d has %d boundaries, want %d", t, len(b), k.Params.SectionsPerTrack+1)
		}
		if b[0] != prevEnd {
			return fmt.Errorf("geometry: track %d starts at %d, want %d", t, b[0], prevEnd)
		}
		for l := 0; l < len(b)-1; l++ {
			if b[l+1] <= b[l] {
				return fmt.Errorf("geometry: track %d section %d empty or inverted", t, l)
			}
		}
		prevEnd = b[len(b)-1]
	}
	if prevEnd != k.Total {
		return fmt.Errorf("geometry: boundaries end at %d, total says %d", prevEnd, k.Total)
	}
	return nil
}

// View derives the reading-order geometry a host model can assume
// from key points alone: each track is taken to span the nominal
// physical track length, with each section's physical extent
// proportional to its segment count (uniform recording density). The
// physical cartridge deviates from uniform density, which is exactly
// the residual model error the paper's Sections 6-7 study.
func (k *KeyPointTable) View() (*View, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	v := &View{params: k.Params, total: k.Total}
	v.tracks = make([]TrackView, k.Params.Tracks)
	nominalSegs := float64(k.Params.NominalSegments()) / float64(k.Params.Tracks)
	for t := range v.tracks {
		b := k.Bound[t]
		// Tracks physically shrink with the segments they lose to
		// bad spots; the key points reveal each track's segment
		// count, so scale its assumed length accordingly.
		length := k.Params.NominalTrackLength() * float64(b[len(b)-1]-b[0]) / nominalSegs
		dir := k.Params.TrackDirection(t)
		tv := TrackView{
			Dir:      dir,
			BoundLBN: b,
			BoundPos: make([]float64, len(b)),
		}
		total := float64(b[len(b)-1] - b[0])
		pos := 0.0
		if dir == Reverse {
			pos = length
		}
		tv.BoundPos[0] = pos
		for l := 0; l < len(b)-1; l++ {
			span := length * float64(b[l+1]-b[l]) / total
			if dir == Reverse {
				pos -= span
			} else {
				pos += span
			}
			tv.BoundPos[l+1] = pos
		}
		v.tracks[t] = tv
	}
	return v, nil
}
