// Package geometry models the physical layout of serpentine tape: the
// back-and-forth track structure, the section subdivision of each
// track, the mapping between logical block numbers (absolute segment
// numbers) and physical tape positions, and the per-tape "key points"
// (track boundaries and interior dips) that parameterize the locate
// time model of Hillyer & Silberschatz (SIGMOD 1996).
//
// Two representations coexist:
//
//   - Tape is ground truth: a synthetic cartridge generated from a
//     seed, with per-section segment-count jitter, recording-density
//     variation and a short final section, standing in for the
//     physical DLT4000 cartridges the paper measured.
//   - View is the reading-order geometry used for locate-time
//     arithmetic. A View is obtained either exactly from a Tape (the
//     emulated drive's own knowledge of itself) or approximately from
//     a KeyPointTable (what a host can learn by characterizing a tape
//     through locate-time measurements, per [HS96]).
//
// Physical positions are expressed in section units: the nominal
// physical length of one section is 1.0, so a DLT4000 track spans
// about 13.85 units (13 full sections plus a short section 13).
package geometry

import "fmt"

// Direction is the reading direction of a serpentine track.
type Direction int8

const (
	// Forward tracks are read from the physical beginning of the
	// tape toward the end; even-numbered tracks on the DLT4000.
	Forward Direction = iota
	// Reverse tracks are read from the physical end of the tape
	// toward the beginning; odd-numbered tracks on the DLT4000.
	Reverse
)

// String returns "forward" or "reverse".
func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "reverse"
}

// Co reports whether two directions are co-directional.
func (d Direction) Co(o Direction) bool { return d == o }

// Params describes a serpentine tape format: the fixed geometry of a
// drive/cartridge family. The DLT4000 profile reproduces the geometry
// the paper reports; the others are plausible scalings used by the
// extension benchmarks.
type Params struct {
	// Name identifies the profile in output.
	Name string

	// Tracks is the number of serpentine tracks (track groups).
	// 64 on the DLT4000. Track 0 is Forward; directions alternate.
	Tracks int

	// SectionsPerTrack is the number of sections per track; 14 on
	// the DLT4000 (numbered 0-13, 0 physically closest to the
	// beginning of tape).
	SectionsPerTrack int

	// SegmentsPerSection is the nominal segment count of a full
	// section; about 704 on the DLT4000 for 32 KB segments.
	SegmentsPerSection int

	// LastSectionFrac is the relative size of the final section of
	// each track, which the paper reports as "significantly
	// shorter"; 0.81 reproduces the ~568-segment section 13 and the
	// reported ~600 first-written segment index of reverse tracks.
	LastSectionFrac float64

	// SegmentBytes is the segment (chunk) size; 32 KB in the paper.
	SegmentBytes int64

	// ReadSecPerSection is the slower transport speed used for I/O
	// transfers and short motions: 15.5 s/section on the DLT4000.
	ReadSecPerSection float64

	// ScanSecPerSection is the fast transport speed used for rewind
	// and long motions: 10 s/section on the DLT4000.
	ScanSecPerSection float64

	// TrackSwitchSec is the head-step-and-settle time charged when a
	// locate changes tracks.
	TrackSwitchSec float64

	// ReverseSec is charged each time the tape transport must stop
	// and reverse its physical direction of motion during a locate.
	ReverseSec float64

	// OverheadSec is the fixed command/settle overhead of every
	// locate operation.
	OverheadSec float64

	// SectionCountJitter is the half-width of the uniform integer
	// jitter applied to each section's segment count when
	// synthesizing a tape (servo variation).
	SectionCountJitter int

	// BadSpotMaxLoss is the largest number of segments a track can
	// lose to bad spots (spread over a few sections), per the
	// paper's observation that "tracks have differing lengths,
	// perhaps reflecting differing amounts of space lost to bad
	// spots". Bad spots are what make two cartridges' key-point
	// tables diverge by substantial fractions of a section, so that
	// scheduling tape A with tape B's key points is disastrous
	// (Figure 9).
	BadSpotMaxLoss int

	// DensityJitterFrac is the half-width of the relative jitter
	// between a section's physical length and its segment count
	// when synthesizing a tape. It is what makes a characterized
	// model disagree slightly with the physical cartridge: the model
	// assumes uniform recording density, the cartridge does not.
	DensityJitterFrac float64

	// PersonalityFrac is the half-width of the per-cartridge skew of
	// the transport speed constants (tape tension, media thickness,
	// pack slip). The locate model always uses the nominal
	// constants, so a non-zero personality makes every estimate on
	// that cartridge slightly and systematically off — the effect
	// behind the paper's Section 3 observation that the model
	// developed on one tape shows more >2 s errors on a different
	// tape (24/1000 versus 7/3000). Experiments that need the
	// model-development tape itself ("tape A") generate it with
	// PersonalityFrac zeroed.
	PersonalityFrac float64
}

// DLT4000 returns the geometry and timing profile of the Quantum
// DLT4000 as reported in the paper: 64 tracks x 14 sections, ~704
// segments of 32 KB per section, 622k segments per cartridge, read
// speed 15.5 s/section, scan speed 10 s/section. The overhead
// constants are tuned (see the locate package tests) so that the
// model reproduces the paper's aggregate statistics: maximum locate
// ~180 s, mean locate from the beginning of tape ~96.5 s, mean locate
// between random segments ~72.4 s, full-tape read + rewind ~14,000 s.
func DLT4000() Params {
	return Params{
		Name:               "DLT4000",
		Tracks:             64,
		SectionsPerTrack:   14,
		SegmentsPerSection: 713, // ~704 on average after bad-spot losses
		LastSectionFrac:    0.81,
		BadSpotMaxLoss:     250,
		SegmentBytes:       32 << 10,
		ReadSecPerSection:  15.5,
		ScanSecPerSection:  10.0,
		TrackSwitchSec:     2.0,
		ReverseSec:         1.5,
		OverheadSec:        2.0,
		SectionCountJitter: 8,
		DensityJitterFrac:  0.004,
		PersonalityFrac:    0.012,
	}
}

// DLT7000 returns a plausible profile for the faster, denser DLT7000
// (5.2 MB/s, 35 GB) used by the extension benchmarks. The serpentine
// structure is the same; transport is faster and tracks denser.
func DLT7000() Params {
	p := DLT4000()
	p.Name = "DLT7000"
	p.Tracks = 52
	p.SegmentsPerSection = 1536
	p.ReadSecPerSection = 10.4 // 1536 segments * 32 KB / 5.2 MB/s / section
	p.ScanSecPerSection = 7.0
	return p
}

// IBM3590 returns a plausible profile for the IBM 3590 (9 MB/s,
// 10 GB): fewer, shorter tracks and a much faster transport.
func IBM3590() Params {
	p := DLT4000()
	p.Name = "IBM3590"
	p.Tracks = 32
	p.SectionsPerTrack = 10
	p.SegmentsPerSection = 1024
	p.ReadSecPerSection = 3.6
	p.ScanSecPerSection = 2.4
	p.TrackSwitchSec = 1.5
	p.ReverseSec = 2.0
	p.OverheadSec = 1.5
	return p
}

// Tiny returns a small profile (6 tracks x 5 sections x 40 segments)
// for exhaustive property tests; it is not a real device.
func Tiny() Params {
	p := DLT4000()
	p.Name = "Tiny"
	p.Tracks = 6
	p.SectionsPerTrack = 5
	p.SegmentsPerSection = 40
	p.SectionCountJitter = 2
	return p
}

// Validate reports an error describing the first invalid field, or
// nil if the profile is usable.
func (p Params) Validate() error {
	switch {
	case p.Tracks < 1:
		return fmt.Errorf("geometry: %s: Tracks must be >= 1, got %d", p.Name, p.Tracks)
	case p.SectionsPerTrack < 2:
		return fmt.Errorf("geometry: %s: SectionsPerTrack must be >= 2, got %d", p.Name, p.SectionsPerTrack)
	case p.SegmentsPerSection < 4:
		return fmt.Errorf("geometry: %s: SegmentsPerSection must be >= 4, got %d", p.Name, p.SegmentsPerSection)
	case p.LastSectionFrac <= 0 || p.LastSectionFrac > 1:
		return fmt.Errorf("geometry: %s: LastSectionFrac must be in (0,1], got %g", p.Name, p.LastSectionFrac)
	case p.SegmentBytes <= 0:
		return fmt.Errorf("geometry: %s: SegmentBytes must be positive, got %d", p.Name, p.SegmentBytes)
	case p.ReadSecPerSection <= 0:
		return fmt.Errorf("geometry: %s: ReadSecPerSection must be positive, got %g", p.Name, p.ReadSecPerSection)
	case p.ScanSecPerSection <= 0:
		return fmt.Errorf("geometry: %s: ScanSecPerSection must be positive, got %g", p.Name, p.ScanSecPerSection)
	case p.ScanSecPerSection > p.ReadSecPerSection:
		return fmt.Errorf("geometry: %s: scan speed must not be slower than read speed", p.Name)
	case p.SectionCountJitter < 0:
		return fmt.Errorf("geometry: %s: SectionCountJitter must be >= 0, got %d", p.Name, p.SectionCountJitter)
	case p.BadSpotMaxLoss < 0:
		return fmt.Errorf("geometry: %s: BadSpotMaxLoss must be >= 0, got %d", p.Name, p.BadSpotMaxLoss)
	case p.DensityJitterFrac < 0 || p.DensityJitterFrac >= 0.5:
		return fmt.Errorf("geometry: %s: DensityJitterFrac must be in [0,0.5), got %g", p.Name, p.DensityJitterFrac)
	case p.PersonalityFrac < 0 || p.PersonalityFrac >= 0.5:
		return fmt.Errorf("geometry: %s: PersonalityFrac must be in [0,0.5), got %g", p.Name, p.PersonalityFrac)
	}
	return nil
}

// TrackDirection returns the reading direction of track t: even
// tracks are forward, odd tracks reverse, per the DLT serpentine
// writing pattern.
func (p Params) TrackDirection(t int) Direction {
	if t%2 == 0 {
		return Forward
	}
	return Reverse
}

// NominalSegments returns the segment count of an ideal, jitter-free
// cartridge with this geometry.
func (p Params) NominalSegments() int {
	perTrack := (p.SectionsPerTrack-1)*p.SegmentsPerSection + p.lastSectionSegments()
	return p.Tracks * perTrack
}

func (p Params) lastSectionSegments() int {
	n := int(float64(p.SegmentsPerSection)*p.LastSectionFrac + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// NominalTrackLength returns the physical length of a track in
// section units: full sections count 1.0, the last section counts
// LastSectionFrac.
func (p Params) NominalTrackLength() float64 {
	return float64(p.SectionsPerTrack-1) + p.LastSectionFrac
}

// TransferRateBytesPerSec returns the sustained sequential transfer
// rate implied by the geometry (segment bytes over per-segment read
// time). For the DLT4000 profile this is ~1.5 MB/s, matching the
// paper.
func (p Params) TransferRateBytesPerSec() float64 {
	secPerSegment := p.ReadSecPerSection / float64(p.SegmentsPerSection)
	return float64(p.SegmentBytes) / secPerSegment
}
