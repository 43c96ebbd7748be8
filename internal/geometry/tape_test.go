package geometry

import (
	"math"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(DLT4000(), 5)
	b := MustGenerate(DLT4000(), 5)
	if a.Segments() != b.Segments() {
		t.Fatal("same serial, different capacity")
	}
	ka, kb := a.KeyPoints(), b.KeyPoints()
	for tr := range ka.Bound {
		for l := range ka.Bound[tr] {
			if ka.Bound[tr][l] != kb.Bound[tr][l] {
				t.Fatalf("same serial, different key point at track %d, l %d", tr, l)
			}
		}
	}
	if a.TruthView().Params() != b.TruthView().Params() {
		t.Fatal("same serial, different personality")
	}
}

// personality reads a cartridge's hidden skews back off its truth
// view: the read and scan speed skews as fractions of the nominal
// speeds, and the additive locate overhead in seconds.
func personality(tape *Tape) (readSkew, scanSkew, overheadSec float64) {
	nom, tru := tape.View().Params(), tape.TruthView().Params()
	return tru.ReadSecPerSection/nom.ReadSecPerSection - 1,
		tru.ScanSecPerSection/nom.ScanSecPerSection - 1,
		tru.OverheadSec - nom.OverheadSec
}

func TestGenerateDiffersBySerial(t *testing.T) {
	a := MustGenerate(DLT4000(), 1)
	b := MustGenerate(DLT4000(), 2)
	ka, kb := a.KeyPoints(), b.KeyPoints()
	diffs := 0
	for tr := range ka.Bound {
		for l := range ka.Bound[tr] {
			if l < len(kb.Bound[tr]) && ka.Bound[tr][l] != kb.Bound[tr][l] {
				diffs++
			}
		}
	}
	if diffs < 500 {
		t.Fatalf("tapes with different serials share too many key points (%d differ)", diffs)
	}
}

func TestGenerateRejectsBadProfile(t *testing.T) {
	p := DLT4000()
	p.Tracks = 0
	if _, err := Generate(p, 1); err == nil {
		t.Fatal("expected error for invalid profile")
	}
}

func TestCapacityNearPaper(t *testing.T) {
	// The paper's two cartridges held 622,058 and 622,102 segments.
	for serial := int64(1); serial <= 8; serial++ {
		tape := MustGenerate(DLT4000(), serial)
		if n := tape.Segments(); n < 615000 || n > 630000 {
			t.Errorf("serial %d: %d segments, want ~622k", serial, n)
		}
	}
}

func TestReverseTrackFirstWrittenCoordinate(t *testing.T) {
	// "the first segment written on a reverse track t' is (t',13,k),
	// where k has a typical value of 600 or so."
	tape := MustGenerate(DLT4000(), 1)
	v := tape.View()
	p := tape.Params()
	for tr := 1; tr < p.Tracks; tr += 2 {
		first := v.Track(tr).StartLBN()
		c := v.Coord(first)
		if c.Track != tr || c.Section != p.SectionsPerTrack-1 {
			t.Fatalf("reverse track %d first segment at (%d,%d,%d), want section %d",
				tr, c.Track, c.Section, c.Segment, p.SectionsPerTrack-1)
		}
		if c.Segment < 250 || c.Segment > 700 {
			t.Fatalf("reverse track %d: first-written k = %d, want a few hundred", tr, c.Segment)
		}
	}
}

func TestTracksHaveDifferingLengths(t *testing.T) {
	// "Measurements indicate that tracks have differing lengths,
	// perhaps reflecting differing amounts of space lost to bad
	// spots."
	tape := MustGenerate(DLT4000(), 1)
	v := tape.View()
	min, max := math.Inf(1), math.Inf(-1)
	for tr := 0; tr < v.Tracks(); tr++ {
		tv := v.Track(tr)
		l := math.Abs(tv.BoundPos[tv.Sections()] - tv.BoundPos[0])
		min = math.Min(min, l)
		max = math.Max(max, l)
	}
	if max-min < 0.01 {
		t.Fatalf("track lengths suspiciously uniform: min %.4f max %.4f", min, max)
	}
	if max > tape.Params().NominalTrackLength()+0.1 {
		t.Fatalf("track longer than nominal: %.3f", max)
	}
}

func TestPersonalityBounds(t *testing.T) {
	p := DLT4000()
	// The skews are read back through a division, so allow the bounds
	// a few ulps of rounding.
	const eps = 1e-12
	for serial := int64(1); serial <= 20; serial++ {
		tape := MustGenerate(p, serial)
		if tape.View().Params() != p {
			t.Fatalf("serial %d: the host view's params differ from the nominal profile", serial)
		}
		r, s, o := personality(tape)
		if math.Abs(r) > p.PersonalityFrac+eps || math.Abs(s) > p.PersonalityFrac+eps {
			t.Fatalf("serial %d: skews %g/%g exceed %g", serial, r, s, p.PersonalityFrac)
		}
		if math.Abs(r) < p.PersonalityFrac/2-eps || math.Abs(s) < p.PersonalityFrac/2-eps {
			t.Fatalf("serial %d: skews %g/%g below half-range (should be meaningfully non-zero)", serial, r, s)
		}
		if math.Abs(o) > p.PersonalityFrac*20+eps {
			t.Fatalf("serial %d: overhead %g out of range", serial, o)
		}
	}
}

func TestZeroPersonalityProfile(t *testing.T) {
	p := DLT4000()
	p.PersonalityFrac = 0
	tape := MustGenerate(p, 1)
	if tape.TruthView().Params() != tape.View().Params() {
		t.Fatal("zero PersonalityFrac should leave the truth view's params nominal")
	}
	r, s, o := personality(tape)
	if r != 0 || s != 0 || o != 0 {
		t.Fatalf("zero PersonalityFrac should yield zero personality, got %g/%g/%g", r, s, o)
	}
}

func TestTapeString(t *testing.T) {
	tape := MustGenerate(DLT4000(), 9)
	s := tape.String()
	if s == "" || tape.Serial() != 9 {
		t.Fatal("String/Serial broken")
	}
}

func TestSectionCountsWithinBounds(t *testing.T) {
	p := DLT4000()
	tape := MustGenerate(p, 4)
	v := tape.View()
	for tr := 0; tr < v.Tracks(); tr++ {
		tv := v.Track(tr)
		lost := 0
		for l := 0; l < tv.Sections(); l++ {
			c := tv.SectionCount(l)
			if c < p.SegmentsPerSection/2 {
				t.Fatalf("track %d section %d has %d segments, below floor", tr, l, c)
			}
			if c > p.SegmentsPerSection+p.SectionCountJitter {
				t.Fatalf("track %d section %d has %d segments, above max", tr, l, c)
			}
			nominal := p.SegmentsPerSection
			phys := l
			if tv.Dir == Reverse {
				phys = tv.Sections() - 1 - l
			}
			if phys == tv.Sections()-1 {
				nominal = int(float64(p.SegmentsPerSection)*p.LastSectionFrac + 0.5)
			}
			if d := nominal - c; d > 0 {
				lost += d - p.SectionCountJitter
			}
		}
		if lost > p.BadSpotMaxLoss+3*p.SectionCountJitter {
			t.Fatalf("track %d lost %d segments, exceeds bad-spot budget", tr, lost)
		}
	}
}
