package locate

import (
	"math"
	"testing"
	"testing/quick"

	"serpentine/internal/geometry"
	"serpentine/internal/rand48"
)

func dltModel(t *testing.T, serial int64) (*geometry.Tape, *Model) {
	t.Helper()
	tape := geometry.MustGenerate(geometry.DLT4000(), serial)
	m, err := FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	return tape, m
}

func TestLocateSameSegmentIsFree(t *testing.T) {
	_, m := dltModel(t, 1)
	for _, lbn := range []int{0, 100, 311027, m.Segments() - 1} {
		if got := m.LocateTime(lbn, lbn); got != 0 {
			t.Fatalf("LocateTime(%d,%d) = %g, want 0", lbn, lbn, got)
		}
		if c := m.Classify(lbn, lbn); c != CaseNone {
			t.Fatalf("Classify(x,x) = %v, want none", c)
		}
	}
}

// Property: locate times are non-negative and bounded by the paper's
// observed maximum (~180 s).
func TestLocateTimeBounds(t *testing.T) {
	_, m := dltModel(t, 1)
	f := func(a, b uint32) bool {
		src := int(a) % m.Segments()
		dst := int(b) % m.Segments()
		lt := m.LocateTime(src, dst)
		return lt >= 0 && lt <= 185
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// The paper's aggregate statistics for the DLT4000 (Section 3): the
// expected locate from the beginning of tape to a random segment is
// 96.5 s, between two random segments 72.4 s, and the maximum is
// about 180 s.
func TestPaperAggregateStatistics(t *testing.T) {
	_, m := dltModel(t, 1)
	rng := rand48.New(42)
	const trials = 50000
	var sumBOT, sumRR, max float64
	for i := 0; i < trials; i++ {
		d := rng.Intn(m.Segments())
		s := rng.Intn(m.Segments())
		bot := m.LocateTime(0, d)
		rr := m.LocateTime(s, d)
		sumBOT += bot
		sumRR += rr
		max = math.Max(max, math.Max(bot, rr))
	}
	if mean := sumBOT / trials; math.Abs(mean-96.5) > 4 {
		t.Errorf("mean locate from BOT = %.2f s, paper 96.5", mean)
	}
	if mean := sumRR / trials; math.Abs(mean-72.4) > 4 {
		t.Errorf("mean random locate = %.2f s, paper 72.4", mean)
	}
	if max < 160 || max > 185 {
		t.Errorf("max locate = %.2f s, paper ~180", max)
	}
}

// "a typical time to read an entire tape and rewind is 14,000
// seconds (just under 4 hours)".
func TestFullReadTimeNearPaper(t *testing.T) {
	_, m := dltModel(t, 1)
	if s := m.FullReadTime(); s < 13500 || s > 14500 {
		t.Errorf("full read = %.0f s, paper ~14,000", s)
	}
}

// "locate_time(x,y) typically differs from locate_time(y,x) by tens
// of seconds, so the asymmetric version of the traveling salesman
// problem applies."
func TestLocateTimeIsAsymmetric(t *testing.T) {
	_, m := dltModel(t, 1)
	rng := rand48.New(7)
	var diff float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		x := rng.Intn(m.Segments())
		y := rng.Intn(m.Segments())
		diff += math.Abs(m.LocateTime(x, y) - m.LocateTime(y, x))
	}
	if mean := diff / trials; mean < 10 {
		t.Errorf("mean |t(x,y)-t(y,x)| = %.1f s, want tens of seconds", mean)
	}
}

// The sawtooth structure of Figure 1: each dip is exactly one segment
// beyond a peak, the drop is abrupt, and its size is ~25 s in reverse
// tracks and ~5 s in forward tracks (Section 7).
func TestSectionBoundaryDips(t *testing.T) {
	tape, m := dltModel(t, 1)
	v := tape.View()
	check := func(track int, wantDrop, tol float64) {
		tv := v.Track(track)
		for l := 3; l <= 6; l++ {
			y := tv.BoundLBN[l]
			drop := m.LocateTime(0, y-1) - m.LocateTime(0, y)
			if math.Abs(drop-wantDrop) > tol {
				t.Errorf("track %d boundary %d: drop %.1f s, want ~%.0f", track, l, drop, wantDrop)
			}
		}
	}
	check(4, 5.5, 1.5)  // forward track: read-scan difference over one section
	check(5, 25.5, 3.0) // reverse track: read+scan over one section
}

// "for most source segments x, there exist approximately 300
// destination segments y such that locate_time(x,y-1) exceeds
// locate_time(x,y) by about 25 seconds": the dips of all 32 reverse
// tracks (13 interior boundaries each) plus reverse track starts.
func TestBigDipPopulation(t *testing.T) {
	tape, m := dltModel(t, 1)
	v := tape.View()
	p := tape.Params()
	count := 0
	for tr := 0; tr < p.Tracks; tr++ {
		tv := v.Track(tr)
		for l := 1; l < tv.Sections(); l++ {
			y := tv.BoundLBN[l]
			if m.LocateTime(0, y-1)-m.LocateTime(0, y) > 20 {
				count++
			}
		}
	}
	// 32 reverse tracks x (sections 2..13 have the 25 s signature
	// from BOT) ~ 384; the paper eyeballed "approximately 300".
	if count < 250 || count > 500 {
		t.Errorf("found %d ~25s dips, paper says approximately 300", count)
	}
}

// Case classification must follow the paper's Section 3 wording. The
// scenarios construct (src, dst) pairs in known geometric relations.
func TestClassifyPaperCases(t *testing.T) {
	tape, m := dltModel(t, 1)
	v := tape.View()

	// Work on forward track 10 and its neighbors; logical == physical
	// sections on forward tracks.
	fwd := v.Track(10)  // forward
	fwd2 := v.Track(12) // co-directional with 10
	rev := v.Track(11)  // anti-directional with 10
	mid := func(tv *geometry.TrackView, l int) int {
		return (tv.BoundLBN[l] + tv.BoundLBN[l+1]) / 2
	}

	cases := []struct {
		name     string
		src, dst int
		want     Case
	}{
		{"same section forward", mid(fwd, 5), mid(fwd, 5) + 10, Case1},
		{"next section", mid(fwd, 5), mid(fwd, 6), Case1},
		{"two sections ahead", mid(fwd, 5), mid(fwd, 7), Case1},
		{"three sections ahead same track", mid(fwd, 5), mid(fwd, 8), Case2},
		{"far ahead co-directional", mid(fwd, 5), mid(fwd2, 9), Case2},
		{"backward same track", mid(fwd, 8), mid(fwd, 5), Case3},
		{"one ahead co-directional", mid(fwd, 5), mid(fwd2, 6), Case3},
		{"back to second section", mid(fwd, 8), mid(fwd, 1), Case4},
		{"back to first section co-directional", mid(fwd, 8), mid(fwd2, 0), Case4},
		{"anti-directional far forward", mid(fwd, 10), mid(rev, 8), Case5},
		{"anti-directional nearby", mid(fwd, 5), mid(rev, 13-5), Case6},
		{"anti-directional first section", mid(fwd, 5), mid(rev, 0), Case7},
	}
	for _, c := range cases {
		if got := m.Classify(c.src, c.dst); got != c.want {
			t.Errorf("%s: Classify(%d,%d) = %v, want %v", c.name, c.src, c.dst, got, c.want)
		}
	}
}

// Property: the classifier and the estimator agree — case 1 times
// are pure read motion (cheap for short hops), and every non-case-1
// locate includes the fixed overhead.
func TestClassifierEstimatorConsistency(t *testing.T) {
	tape, m := dltModel(t, 2)
	p := tape.Params()
	f := func(a, b uint32) bool {
		src := int(a) % m.Segments()
		dst := int(b) % m.Segments()
		if src == dst {
			return m.LocateTime(src, dst) == 0
		}
		lt := m.LocateTime(src, dst)
		switch m.Classify(src, dst) {
		case Case1:
			// Bounded by reading three sections.
			return lt <= 3*p.ReadSecPerSection+0.1
		case CaseNone:
			return false
		default:
			return lt >= p.OverheadSec
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Maneuver must agree with Classify and LocateTime.
func TestManeuverConsistent(t *testing.T) {
	tape, m := dltModel(t, 1)
	p := tape.Params()
	rng := rand48.New(9)
	for i := 0; i < 2000; i++ {
		src := rng.Intn(m.Segments())
		dst := rng.Intn(m.Segments())
		mo := m.Maneuver(src, dst)
		if mo.Case != m.Classify(src, dst) {
			t.Fatalf("Maneuver case %v != Classify %v", mo.Case, m.Classify(src, dst))
		}
		if src == dst {
			continue
		}
		want := m.LocateTime(src, dst)
		var got float64
		if mo.Case == Case1 {
			got = p.ReadSecPerSection * mo.ReadSections
		} else {
			got = p.OverheadSec + float64(mo.Reversals)*p.ReverseSec +
				p.ScanSecPerSection*mo.ScanSections + p.ReadSecPerSection*mo.ReadSections
			if mo.TrackSwap {
				got += p.TrackSwitchSec
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("maneuver arithmetic %.6f != locate time %.6f", got, want)
		}
	}
}

func TestReadTimeMatchesTransferRate(t *testing.T) {
	tape, m := dltModel(t, 1)
	p := tape.Params()
	// One 32 KB segment at 1.5 MB/s is ~22 ms.
	want := float64(p.SegmentBytes) / p.TransferRateBytesPerSec()
	rng := rand48.New(4)
	for i := 0; i < 200; i++ {
		lbn := rng.Intn(m.Segments())
		got := m.ReadTime(lbn)
		if got < want*0.7 || got > want*1.4 {
			t.Fatalf("ReadTime(%d) = %.4f s, want ~%.4f", lbn, got, want)
		}
	}
}

// TestReadSpanMatchesPerSegmentSum pins ReadSpan bit for bit against
// the per-segment ReadTime loop it replaces, on spans that start and
// end mid-section, cross several sections, or stop at the last
// segment.
func TestReadSpanMatchesPerSegmentSum(t *testing.T) {
	_, m := dltModel(t, 1)
	rng := rand48.New(7)
	check := func(lbn, n int) {
		t.Helper()
		want := 0.0
		for i := 0; i < n; i++ {
			want += m.ReadTime(lbn + i)
		}
		if got := m.ReadSpan(lbn, n); got != want {
			t.Fatalf("ReadSpan(%d, %d) = %v, per-segment sum %v", lbn, n, got, want)
		}
	}
	check(0, 0)
	check(0, 1)
	check(m.Segments()-1, 1)
	check(m.Segments()-2000, 2000)
	for i := 0; i < 500; i++ {
		n := rng.Intn(3000)
		check(rng.Intn(m.Segments()-n), n)
	}
}

func TestRewindTime(t *testing.T) {
	tape, m := dltModel(t, 1)
	v := tape.View()
	// Rewinding from the beginning of tape is nearly free; from the
	// far end it costs a full-length scan (~140 s).
	if early := m.RewindTime(5); early > 10 {
		t.Errorf("rewind from segment 5 = %.1f s, want small", early)
	}
	farEnd := v.Track(0).EndLBN() - 1 // physical end of tape
	if far := m.RewindTime(farEnd); far < 120 || far > 160 {
		t.Errorf("rewind from physical end = %.1f s, want ~140", far)
	}
	// Monotone-ish: rewind from farther out costs at least as much.
	if m.RewindTime(farEnd) <= m.RewindTime(farEnd/2) {
		t.Error("rewind time should grow with physical position")
	}
}

// Fact 1 behind SLTF (Section 4): within a section, reading ahead
// beats any locate out of the section.
func TestInSectionReadAheadIsNearest(t *testing.T) {
	tape, m := dltModel(t, 1)
	v := tape.View()
	rng := rand48.New(11)
	for i := 0; i < 300; i++ {
		x := rng.Intn(m.Segments() - 10)
		pl := v.Place(x)
		tv := v.Track(pl.Track)
		sectionEnd := tv.BoundLBN[pl.Section+1]
		if x+1 >= sectionEnd {
			continue
		}
		inSection := m.LocateTime(x, x+1+rng.Intn(sectionEnd-x-1))
		y := rng.Intn(m.Segments())
		if v.Place(y).Track == pl.Track && v.Place(y).Section == pl.Section {
			continue
		}
		outOfSection := m.LocateTime(x, y)
		if inSection >= outOfSection {
			t.Fatalf("in-section read-ahead (%.2f) not cheaper than leaving (%.2f)", inSection, outOfSection)
		}
	}
}

// Fact 2 behind SLTF: the cheapest entry into another section is its
// lowest-numbered segment.
func TestSectionEntryAtLowestSegment(t *testing.T) {
	tape, m := dltModel(t, 1)
	v := tape.View()
	rng := rand48.New(13)
	for i := 0; i < 300; i++ {
		x := rng.Intn(m.Segments())
		tr := rng.Intn(v.Tracks())
		l := rng.Intn(tape.Params().SectionsPerTrack)
		if pl := v.Place(x); pl.Track == tr && pl.Section == l {
			continue
		}
		first := v.SectionStartLBN(tr, l)
		entry := m.LocateTime(x, first)
		tv := v.Track(tr)
		for k := 0; k < 5; k++ {
			other := first + 1 + rng.Intn(tv.BoundLBN[l+1]-first-1)
			if m.LocateTime(x, other) < entry-1e-9 {
				t.Fatalf("segment %d cheaper to reach than section start %d", other, first)
			}
		}
	}
}

func TestCaseString(t *testing.T) {
	if CaseNone.String() != "none" || Case1.String() != "case1" || Case7.String() != "case7" {
		t.Fatal("Case.String wrong")
	}
	if Case(99).String() == "" {
		t.Fatal("unknown case should still print")
	}
}
