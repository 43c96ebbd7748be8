package geometry

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// Property: LBN -> Coord -> LBN is the identity, on both a tiny
// exhaustive geometry and the full DLT4000.
func TestCoordRoundTripExhaustiveTiny(t *testing.T) {
	tape := MustGenerate(Tiny(), 3)
	v := tape.View()
	for lbn := 0; lbn < v.Segments(); lbn++ {
		c := v.Coord(lbn)
		if got := v.LBN(c); got != lbn {
			t.Fatalf("roundtrip %d -> %+v -> %d", lbn, c, got)
		}
	}
}

func TestCoordRoundTripQuickDLT(t *testing.T) {
	tape := MustGenerate(DLT4000(), 1)
	v := tape.View()
	f := func(raw uint32) bool {
		lbn := int(raw) % v.Segments()
		return v.LBN(v.Coord(lbn)) == lbn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: placements are structurally consistent.
func TestPlacementInvariants(t *testing.T) {
	tape := MustGenerate(DLT4000(), 2)
	v := tape.View()
	p := tape.Params()
	f := func(raw uint32) bool {
		lbn := int(raw) % v.Segments()
		pl := v.Place(lbn)
		if pl.LBN != lbn {
			return false
		}
		if pl.Track < 0 || pl.Track >= p.Tracks {
			return false
		}
		if pl.Section < 0 || pl.Section >= p.SectionsPerTrack {
			return false
		}
		if pl.Frac < 0 || pl.Frac >= 1 {
			return false
		}
		if pl.Pos < 0 || pl.Pos > p.NominalTrackLength()+0.5 {
			return false
		}
		if pl.Dir != p.TrackDirection(pl.Track) {
			return false
		}
		// Physical section and logical section are mirror images on
		// reverse tracks.
		if pl.Dir == Forward && pl.PhysSection != pl.Section {
			return false
		}
		if pl.Dir == Reverse && pl.PhysSection != p.SectionsPerTrack-1-pl.Section {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Within a track, increasing LBN moves the head strictly in the
// track's reading direction.
func TestLBNOrderFollowsReadingDirection(t *testing.T) {
	tape := MustGenerate(DLT4000(), 1)
	v := tape.View()
	for _, tr := range []int{0, 1, 30, 31, 62, 63} {
		tv := v.Track(tr)
		prev := v.Place(tv.StartLBN())
		for lbn := tv.StartLBN() + 500; lbn < tv.EndLBN(); lbn += 500 {
			pl := v.Place(lbn)
			if tv.Dir == Forward && pl.Pos <= prev.Pos {
				t.Fatalf("forward track %d: pos not increasing at %d", tr, lbn)
			}
			if tv.Dir == Reverse && pl.Pos >= prev.Pos {
				t.Fatalf("reverse track %d: pos not decreasing at %d", tr, lbn)
			}
			prev = pl
		}
	}
}

func TestPlacePanicsOutOfRange(t *testing.T) {
	v := MustGenerate(Tiny(), 1).View()
	for _, lbn := range []int{-1, v.Segments()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Place(%d) should panic", lbn)
				}
			}()
			v.Place(lbn)
		}()
	}
}

func TestSectionIndexDense(t *testing.T) {
	tape := MustGenerate(Tiny(), 2)
	v := tape.View()
	p := tape.Params()
	seen := make(map[int]bool)
	for lbn := 0; lbn < v.Segments(); lbn++ {
		idx := v.SectionIndex(lbn)
		if idx < 0 || idx >= p.Tracks*p.SectionsPerTrack {
			t.Fatalf("SectionIndex(%d) = %d out of range", lbn, idx)
		}
		seen[idx] = true
	}
	if len(seen) != p.Tracks*p.SectionsPerTrack {
		t.Fatalf("only %d of %d section cells populated", len(seen), p.Tracks*p.SectionsPerTrack)
	}
}

func TestSectionStartLBNMatchesBoundaries(t *testing.T) {
	tape := MustGenerate(DLT4000(), 1)
	v := tape.View()
	for tr := 0; tr < v.Tracks(); tr++ {
		tv := v.Track(tr)
		for l := 0; l < tv.Sections(); l++ {
			start := v.SectionStartLBN(tr, l)
			pl := v.Place(start)
			if pl.Track != tr || pl.Section != l {
				t.Fatalf("SectionStartLBN(%d,%d) = %d places at (%d,%d)", tr, l, start, pl.Track, pl.Section)
			}
			if l > 0 {
				before := v.Place(start - 1)
				if before.Track == tr && before.Section == l {
					t.Fatalf("segment before boundary still in section %d", l)
				}
			}
		}
	}
}

func TestKeyPointTableValidate(t *testing.T) {
	tape := MustGenerate(Tiny(), 1)
	good := tape.KeyPoints()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tape.KeyPoints()
	bad.Bound[1][2] = bad.Bound[1][1] // empty section
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for inverted boundary")
	}
	bad2 := tape.KeyPoints()
	bad2.Total++
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected error for wrong total")
	}
	bad3 := tape.KeyPoints()
	bad3.Bound = bad3.Bound[:len(bad3.Bound)-1]
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected error for missing track")
	}
}

// The model view derived from key points must place every segment in
// the same (track, logical section) cell as ground truth, and at a
// physical position within a small tolerance of it.
func TestKeyPointViewMatchesTruth(t *testing.T) {
	tape := MustGenerate(DLT4000(), 3)
	truth := tape.View()
	model, err := tape.KeyPoints().View()
	if err != nil {
		t.Fatal(err)
	}
	if model.Segments() != truth.Segments() {
		t.Fatal("segment counts differ")
	}
	worst := 0.0
	for lbn := 0; lbn < truth.Segments(); lbn += 997 {
		tp := truth.Place(lbn)
		mp := model.Place(lbn)
		if tp.Track != mp.Track || tp.Section != mp.Section {
			t.Fatalf("segment %d: truth (%d,%d) vs model (%d,%d)",
				lbn, tp.Track, tp.Section, mp.Track, mp.Section)
		}
		worst = math.Max(worst, math.Abs(tp.Pos-mp.Pos))
	}
	// Density jitter is ±0.4% per section; cumulative position error
	// should stay a small fraction of a section.
	if worst > 0.1 {
		t.Fatalf("worst position error %.4f sections, want < 0.1", worst)
	}
}

func TestWithParamsSharesLayout(t *testing.T) {
	tape := MustGenerate(DLT4000(), 1)
	v := tape.View()
	p2 := tape.Params()
	p2.ReadSecPerSection *= 1.01
	v2 := v.WithParams(p2)
	if v2.Params().ReadSecPerSection == v.Params().ReadSecPerSection {
		t.Fatal("WithParams did not change params")
	}
	if v2.Segments() != v.Segments() || v2.Place(12345) != v.Place(12345) {
		t.Fatal("WithParams changed the layout")
	}
}

func TestLBNPanicsOnBadCoord(t *testing.T) {
	v := MustGenerate(Tiny(), 1).View()
	bad := []Coord{
		{Track: -1}, {Track: v.Tracks()},
		{Track: 0, Section: -1}, {Track: 0, Section: 99},
		{Track: 0, Section: 0, Segment: 99999},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LBN(%+v) should panic", c)
				}
			}()
			v.LBN(c)
		}()
	}
}

// TestKeyPointIndexBounded reads tables through the key-file reader
// whose section sizes differ by many orders of magnitude, up to a
// claimed total of math.MaxInt segments. The view's section index must
// stay a few words per section whatever the total, and lookups must
// stay exact on both sides of every boundary.
func TestKeyPointIndexBounded(t *testing.T) {
	p := Tiny()
	p.Tracks = 2
	p.SectionsPerTrack = 3
	cases := []struct {
		name   string
		counts []int
	}{
		{"one-segment sections", []int{1, 1, 1, 1, 1, 1}},
		{"near-uniform", []int{700, 713, 690, 705, 711, 568}},
		{"one huge section", []int{1, 1 << 50, 3, 1, 2, 1}},
		{"total MaxInt", []int{1, 1, math.MaxInt - 9, 5, 1, 1}},
	}
	for _, c := range cases {
		kp := &KeyPointTable{Params: p}
		lbn := 0
		for tr := 0; tr < p.Tracks; tr++ {
			b := []int{lbn}
			for l := 0; l < p.SectionsPerTrack; l++ {
				lbn += c.counts[tr*p.SectionsPerTrack+l]
				b = append(b, lbn)
			}
			kp.Bound = append(kp.Bound, b)
		}
		kp.Total = lbn
		var buf bytes.Buffer
		if err := WriteKeyPoints(&buf, kp, 0); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, _, err := ReadKeyPoints(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		v, err := got.View()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n, max := len(v.bucket), maxBucketsPerSection*len(v.secs); n > max {
			t.Fatalf("%s: %d index buckets for %d sections, want at most %d", c.name, n, len(v.secs), max)
		}
		for tr, b := range kp.Bound {
			for l := 0; l < p.SectionsPerTrack; l++ {
				for _, lbn := range []int{b[l], b[l] + 1, b[l+1] - 1} {
					if lbn >= b[l+1] {
						continue
					}
					if got, want := v.SectionIndex(lbn), tr*p.SectionsPerTrack+l; got != want {
						t.Fatalf("%s: SectionIndex(%d) = %d, want %d", c.name, lbn, got, want)
					}
					if pl := v.Place(lbn); pl.Track != tr || pl.Section != l {
						t.Fatalf("%s: Place(%d) in (%d,%d), want (%d,%d)", c.name, lbn, pl.Track, pl.Section, tr, l)
					}
				}
			}
		}
	}
}
