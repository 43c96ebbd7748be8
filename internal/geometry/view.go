package geometry

import (
	"fmt"
	"math"
	"math/bits"
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

// Section is the record of one (track, logical section) cell:
// everything about a segment's placement that does not depend on
// which segment of the section it is. A View holds one per section,
// in LBN order, so the dense index track*SectionsPerTrack+logical
// addresses it.
type Section struct {
	// Track is the track number; Logical the reading-order section
	// index within it.
	Track   int32
	Logical int32
	// Dir is the reading direction of the track.
	Dir Direction
	// StartLBN is the first segment of the section; Count its number
	// of segments.
	StartLBN int
	Count    int
	// StartPos and EndPos are the physical positions of the
	// section's reading-order start and end: the track's BoundPos[l]
	// and BoundPos[l+1].
	StartPos float64
	EndPos   float64
	// Landing is the physical position of the key point a locate to
	// this section lands on: two section boundaries before it in
	// reading order, or the beginning of the track for the first two
	// reading-order sections.
	Landing float64
	// ReadSec is the transfer time of any segment of the section at
	// the view's read speed.
	ReadSec float64
}

// frac returns the fractional position of segment lbn, which must lie
// in the section, in [0, 1).
func (s *Section) frac(lbn int) float64 {
	return (float64(lbn-s.StartLBN) + 0.5) / float64(s.Count)
}

// Pos returns the physical position of segment lbn, which must lie in
// the section, in section units from the beginning of tape. Every
// position the simulator uses comes from this one expression.
func (s *Section) Pos(lbn int) float64 {
	return s.StartPos + s.frac(lbn)*(s.EndPos-s.StartPos)
}

// maxBucketsPerSection bounds the section index at a few words per
// section, whatever segment counts a key-point table claims.
const maxBucketsPerSection = 4

// View is the reading-order geometry of a whole tape: what the locate
// time model needs to place any segment and find the key points
// around it. A View is immutable once built.
type View struct {
	params Params
	tracks []TrackView
	total  int

	// secs holds one record per section, in LBN order.
	secs []Section
	// bucket[lbn>>shift] is the section holding the first segment of
	// lbn's bucket. A bucket no wider than the shortest section holds
	// at most one section start, so a lookup steps forward at most
	// once; tables whose sections differ wildly in size get wider
	// buckets and a scan over the sections a bucket spans.
	bucket []int32
	shift  uint
}

// newView indexes a track layout: it builds the per-section records
// and the bucket index over them.
func newView(p Params, tracks []TrackView, total int) *View {
	v := &View{params: p, tracks: tracks, total: total}
	v.secs = make([]Section, 0, len(tracks)*p.SectionsPerTrack)
	minCount := total
	for t := range tracks {
		tv := &tracks[t]
		for l := 0; l < tv.Sections(); l++ {
			landing := tv.BoundPos[0]
			if l > 1 {
				landing = tv.BoundPos[l-1]
			}
			v.secs = append(v.secs, Section{
				Track:    int32(t),
				Logical:  int32(l),
				Dir:      tv.Dir,
				StartLBN: tv.BoundLBN[l],
				Count:    tv.SectionCount(l),
				StartPos: tv.BoundPos[l],
				EndPos:   tv.BoundPos[l+1],
				Landing:  landing,
			})
			minCount = min(minCount, tv.SectionCount(l))
		}
	}
	v.setReadSec()

	v.shift = uint(bits.Len(uint(minCount))) - 1
	for (total-1)>>v.shift >= maxBucketsPerSection*len(v.secs) {
		v.shift++
	}
	v.bucket = make([]int32, (total-1)>>v.shift+1)
	k := 0
	for b := range v.bucket {
		lbn := b << v.shift
		for v.secs[k].StartLBN+v.secs[k].Count <= lbn {
			k++
		}
		v.bucket[b] = int32(k)
	}
	return v
}

// setReadSec fills each section's read time from the view's params.
func (v *View) setReadSec() {
	for i := range v.secs {
		s := &v.secs[i]
		span := math.Abs(s.EndPos - s.StartPos)
		s.ReadSec = v.params.ReadSecPerSection * span / float64(s.Count)
	}
}

// Params returns the format profile the view was built with.
func (v *View) Params() Params { return v.params }

// WithParams returns a view sharing this view's layout but carrying
// different timing parameters; only the per-section read times are
// recomputed. Tape uses it to apply a cartridge's hidden personality
// (slightly skewed transport speeds) to the true geometry.
func (v *View) WithParams(p Params) *View {
	w := *v
	w.params = p
	w.secs = append([]Section(nil), v.secs...)
	w.setReadSec()
	return &w
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

// SectionIndex returns a dense index identifying the (track, logical
// section) cell containing lbn, in [0, Tracks*SectionsPerTrack).
// Scheduling algorithms use it to bucket requests by section. It
// panics if lbn is out of range.
func (v *View) SectionIndex(lbn int) int {
	if lbn < 0 || lbn >= v.total {
		panic(fmt.Sprintf("geometry: segment %d out of range [0,%d)", lbn, v.total))
	}
	return v.section(lbn)
}

// SectionOf returns the record of the section containing lbn. An
// out-of-range lbn panics on a slice bound.
func (v *View) SectionOf(lbn int) *Section {
	return &v.secs[v.section(lbn)]
}

// section finds lbn's section from its bucket, stepping forward past
// the sections that end at or before lbn. An lbn past the last
// segment steps off the end of secs.
func (v *View) section(lbn int) int {
	k := int(v.bucket[lbn>>v.shift])
	for lbn >= v.secs[k].StartLBN+v.secs[k].Count {
		k++
	}
	return k
}

// Place returns the placement of segment lbn. It panics if lbn is out
// of range; schedulers validate requests before calling.
func (v *View) Place(lbn int) Placement {
	return v.PlaceIn(&v.secs[v.SectionIndex(lbn)], lbn)
}

// PlaceIn is Place for a caller already holding lbn's section record
// s, as SectionOf(lbn) returns it: it skips the section lookup.
func (v *View) PlaceIn(s *Section, lbn int) Placement {
	l := int(s.Logical)
	phys := l
	if s.Dir == Reverse {
		phys = v.params.SectionsPerTrack - 1 - l
	}
	return Placement{
		LBN:         lbn,
		Track:       int(s.Track),
		Dir:         s.Dir,
		Section:     l,
		PhysSection: phys,
		Frac:        s.frac(lbn),
		Pos:         s.Pos(lbn),
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
	tracks := make([]TrackView, k.Params.Tracks)
	nominalSegs := float64(k.Params.NominalSegments()) / float64(k.Params.Tracks)
	for t := range tracks {
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
		tracks[t] = tv
	}
	return newView(k.Params, tracks, k.Total), nil
}
