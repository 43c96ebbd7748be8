package geometry

import (
	"math"
	"strings"
	"testing"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range []Params{DLT4000(), DLT7000(), IBM3590(), Tiny()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	cases := []struct {
		mutate func(*Params)
		want   string
	}{
		{func(p *Params) { p.Tracks = 0 }, "Tracks"},
		{func(p *Params) { p.SectionsPerTrack = 1 }, "SectionsPerTrack"},
		{func(p *Params) { p.SegmentsPerSection = 2 }, "SegmentsPerSection"},
		{func(p *Params) { p.LastSectionFrac = 0 }, "LastSectionFrac"},
		{func(p *Params) { p.LastSectionFrac = 1.5 }, "LastSectionFrac"},
		{func(p *Params) { p.SegmentBytes = 0 }, "SegmentBytes"},
		{func(p *Params) { p.ReadSecPerSection = 0 }, "ReadSecPerSection"},
		{func(p *Params) { p.ScanSecPerSection = -1 }, "ScanSecPerSection"},
		{func(p *Params) { p.ScanSecPerSection = p.ReadSecPerSection + 1 }, "scan speed"},
		{func(p *Params) { p.SectionCountJitter = -1 }, "SectionCountJitter"},
		{func(p *Params) { p.BadSpotMaxLoss = -1 }, "BadSpotMaxLoss"},
		{func(p *Params) { p.DensityJitterFrac = 0.6 }, "DensityJitterFrac"},
		{func(p *Params) { p.PersonalityFrac = -0.1 }, "PersonalityFrac"},
	}
	for _, c := range cases {
		p := DLT4000()
		c.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("mutation for %q: no error", c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not mention %q", err, c.want)
		}
	}
}

func TestTrackDirectionAlternates(t *testing.T) {
	p := DLT4000()
	for tr := 0; tr < p.Tracks; tr++ {
		want := Forward
		if tr%2 == 1 {
			want = Reverse
		}
		if got := p.TrackDirection(tr); got != want {
			t.Fatalf("track %d: direction %v, want %v", tr, got, want)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Reverse.String() != "reverse" {
		t.Fatal("Direction.String wrong")
	}
	if !Forward.Co(Forward) || Forward.Co(Reverse) {
		t.Fatal("Direction.Co wrong")
	}
}

// The DLT4000 profile must reproduce the paper's headline figures.
func TestDLT4000PaperFigures(t *testing.T) {
	p := DLT4000()

	// ~622k segments of 32 KB => ~20 GB cartridge.
	nominal := p.NominalSegments()
	if nominal < 610000 || nominal > 635000 {
		t.Errorf("nominal segments = %d, want ~622k", nominal)
	}
	gb := float64(nominal) * float64(p.SegmentBytes) / 1e9
	if gb < 19 || gb > 21 {
		t.Errorf("capacity = %.1f GB, want ~20", gb)
	}

	// Sustained transfer rate ~1.5 MB/s.
	if r := p.TransferRateBytesPerSec() / 1e6; math.Abs(r-1.5) > 0.1 {
		t.Errorf("transfer rate = %.3f MB/s, want ~1.5", r)
	}

	// Track length: 13 full sections plus a short final one.
	if l := p.NominalTrackLength(); l < 13.5 || l > 14 {
		t.Errorf("track length = %.2f sections, want ~13.8", l)
	}
}

func TestLastSectionIsSignificantlyShorter(t *testing.T) {
	p := DLT4000()
	last := p.lastSectionSegments()
	if last >= p.SegmentsPerSection || last < p.SegmentsPerSection/2 {
		t.Fatalf("last section = %d segments, full = %d", last, p.SegmentsPerSection)
	}
}
