package geometry

import (
	"fmt"

	"serpentine/internal/rand48"
)

// Tape is the ground truth for one synthetic cartridge: exact
// per-section segment counts and exact physical positions, including
// the recording-density variation that a key-point characterization
// cannot see. It stands in for the physical DLT4000 cartridges the
// paper measured (tapes "A" and "B" in Sections 6-7).
//
// Tapes with the same profile but different serial numbers differ in
// their key points by realistic amounts, which is what makes the
// paper's wrong-key-points experiment (Figure 9) meaningful.
type Tape struct {
	params Params
	serial int64
	view   *View
	// truth is view carrying the personality-skewed profile: the
	// drive emulator's ground truth. The hidden cartridge personality
	// is fractional skews of the read and scan speeds and an additive
	// locate overhead, drawn within ±PersonalityFrac
	// (±PersonalityFrac*20 s for the overhead); Generate applies them
	// to truth's params, and the host-side model cannot see them.
	truth *View
}

// Generate synthesizes a cartridge from a format profile and a serial
// number. The same (profile, serial) pair always yields the same
// tape. It returns an error if the profile is invalid.
func Generate(params Params, serial int64) (*Tape, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	// Mix the serial so nearby serial numbers give unrelated tapes;
	// the multiplier is an arbitrary odd 62-bit constant.
	rng := rand48.New(serial*0x3E3779B97F4A7C15 + 1)

	// Personality magnitudes are drawn from the upper half of the
	// configured range with a random sign, so every cartridge that
	// is supposed to deviate from nominal actually does.
	personality := func(scale float64) float64 {
		mag := scale * (0.5 + 0.5*rng.Drand48())
		if rng.Drand48() < 0.5 {
			mag = -mag
		}
		return mag
	}
	readSkew := personality(params.PersonalityFrac)
	scanSkew := personality(params.PersonalityFrac)
	overhead := personality(params.PersonalityFrac * 20)

	s := params.SectionsPerTrack
	tracks := make([]TrackView, params.Tracks)
	lbn := 0
	for t := 0; t < params.Tracks; t++ {
		// Physical layout of the track, in writing/physical order:
		// counts[s] segments in physical section s, occupying
		// physLen[s] section units.
		counts := make([]int, s)
		physLen := make([]float64, s)
		for ps := 0; ps < s; ps++ {
			nominal := params.SegmentsPerSection
			if ps == s-1 {
				nominal = params.lastSectionSegments()
			}
			jitter := 0
			if params.SectionCountJitter > 0 {
				jitter = rng.Intn(2*params.SectionCountJitter+1) - params.SectionCountJitter
			}
			c := nominal + jitter
			if c < 1 {
				c = 1
			}
			counts[ps] = c
		}
		// Bad spots: the track loses up to BadSpotMaxLoss segments,
		// concentrated in a few sections. This is what makes tracks
		// differ in length and two cartridges' key points diverge.
		if params.BadSpotMaxLoss > 0 {
			loss := rng.Intn(params.BadSpotMaxLoss + 1)
			spots := 1 + rng.Intn(3)
			for i := 0; i < spots; i++ {
				sec := rng.Intn(s)
				l := loss / spots
				if counts[sec]-l < params.SegmentsPerSection/2 {
					l = counts[sec] - params.SegmentsPerSection/2
				}
				if l > 0 {
					counts[sec] -= l
				}
			}
		}
		for ps := 0; ps < s; ps++ {
			density := 1 + params.DensityJitterFrac*(2*rng.Drand48()-1)
			physLen[ps] = float64(counts[ps]) / float64(params.SegmentsPerSection) * density
		}
		// cum[ps] is the physical position of the start of physical
		// section ps; cum[s] is the physical end of the track.
		cum := make([]float64, s+1)
		for ps := 0; ps < s; ps++ {
			cum[ps+1] = cum[ps] + physLen[ps]
		}

		dir := params.TrackDirection(t)
		tv := TrackView{
			Dir:      dir,
			BoundLBN: make([]int, s+1),
			BoundPos: make([]float64, s+1),
		}
		for l := 0; l <= s; l++ {
			if dir == Forward {
				tv.BoundPos[l] = cum[l]
			} else {
				tv.BoundPos[l] = cum[s-l]
			}
		}
		tv.BoundLBN[0] = lbn
		for l := 0; l < s; l++ {
			ps := l
			if dir == Reverse {
				ps = s - 1 - l
			}
			lbn += counts[ps]
			tv.BoundLBN[l+1] = lbn
		}
		tracks[t] = tv
	}
	v := newView(params, tracks, lbn)

	truth := params
	truth.ReadSecPerSection *= 1 + readSkew
	truth.ScanSecPerSection *= 1 + scanSkew
	truth.OverheadSec += overhead
	if truth.OverheadSec < 0 {
		truth.OverheadSec = 0
	}
	return &Tape{params: params, serial: serial, view: v, truth: v.WithParams(truth)}, nil
}

// MustGenerate is Generate for known-good profiles; it panics on
// error and is intended for tests and examples.
func MustGenerate(params Params, serial int64) *Tape {
	t, err := Generate(params, serial)
	if err != nil {
		panic(err)
	}
	return t
}

// Params returns the format profile of the tape.
func (t *Tape) Params() Params { return t.params }

// Serial returns the cartridge serial number used to generate it.
func (t *Tape) Serial() int64 { return t.serial }

// Segments returns the number of segments recorded on the tape.
func (t *Tape) Segments() int { return t.view.total }

// View returns the exact reading-order geometry of the tape: what the
// drive itself knows. Host software should characterize the tape and
// build its model from KeyPoints instead.
func (t *Tape) View() *View { return t.view }

// TruthView returns View with the cartridge's hidden personality
// applied to the nominal profile: the skewed read and scan speeds and
// the extra locate overhead. It is built once with the tape, so every
// drive the cartridge is mounted in shares it.
func (t *Tape) TruthView() *View { return t.truth }

// KeyPoints returns the true key-point table of the tape: the track
// boundaries and interior dips, as absolute segment numbers. A real
// system obtains this table by measurement (see the calibrate
// package); tests and experiments that assume a perfectly
// characterized tape use this directly.
func (t *Tape) KeyPoints() *KeyPointTable {
	k := &KeyPointTable{
		Params: t.params,
		Bound:  make([][]int, len(t.view.tracks)),
		Total:  t.view.total,
	}
	for i := range t.view.tracks {
		b := make([]int, len(t.view.tracks[i].BoundLBN))
		copy(b, t.view.tracks[i].BoundLBN)
		k.Bound[i] = b
	}
	return k
}

// String identifies the tape for log output.
func (t *Tape) String() string {
	return fmt.Sprintf("%s cartridge #%d (%d segments)", t.params.Name, t.serial, t.view.total)
}
