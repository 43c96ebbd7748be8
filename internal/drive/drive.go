// Package drive emulates a DLT4000-class serpentine tape drive. It is
// the stand-in for the physical hardware of the paper's validation
// and sensitivity experiments (Sections 3, 6 and 7): a device whose
// true positioning behaviour deviates from the host-side locate model
// in the same structured ways a real drive does, so that comparing
// estimated against "measured" schedule execution times exercises the
// same code paths and reproduces the same error shapes.
//
// Ground truth diverges from the host model through four mechanisms:
//
//   - exact geometry: the drive positions over the cartridge's true
//     physical layout, while the host model works from key points and
//     a uniform-density assumption;
//   - cartridge personality: hidden per-tape skews of the transport
//     speeds (applied in geometry.Tape.TruthView) that the model's
//     nominal constants cannot capture;
//   - end-zone error: positioning near the physical ends of a track
//     takes systematically longer than the model predicts — the
//     region the paper calls out as "less accurate", responsible for
//     the error growth on large schedules (Figure 8);
//   - measurement noise: small per-operation jitter plus rare
//     multi-second outliers (servo retries), matching the paper's
//     report of 7 locates in 3000 off by more than 2 s on the
//     model-development tape.
//
// The drive keeps a virtual clock: every operation returns its
// elapsed time and advances Clock. Nothing sleeps.
package drive

import (
	"errors"
	"fmt"
	"math"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/rand48"
)

// Tunables of the emulator's divergence from the host model; see the
// package comment. They are exported for the sensitivity experiments.
const (
	// EndZoneWidth is the physical distance (in section units) from
	// a track end within which positioning accrues extra time.
	EndZoneWidth = 1.0
	// EndZoneMaxSec is the largest end-zone penalty, at the very
	// edge of a track.
	EndZoneMaxSec = 1.4
	// NoiseSigmaSec is the approximate standard deviation of the
	// per-locate measurement noise.
	NoiseSigmaSec = 0.35
	// OutlierProb is the probability that a locate hits a servo
	// retry outlier.
	OutlierProb = 0.002
	// OutlierMinSec and OutlierMaxSec bound the outlier penalty.
	OutlierMinSec = 5.0
	OutlierMaxSec = 20.0
	// BackhitchMaxSec is the largest extra settle cost of a short
	// same-track repositioning (a backhitch: the transport stops,
	// reverses a fraction of a section, and reacquires the track
	// without a fresh head-step reference). The host model misses
	// this cost. Backhitches are nearly absent between random
	// segment pairs (they need the same track and a sub-section scan)
	// but dominate dense schedules, which is what makes the model's
	// error grow with schedule size (Figure 8) while staying tiny on
	// random locates (Section 3).
	BackhitchMaxSec = 1.3
	// BackhitchScanSections is the scan distance below which the
	// backhitch cost applies.
	BackhitchScanSections = 1.5
	// ReacquireSec scales the extra cost of a short forward skip (a
	// case-1 move that jumps over data instead of streaming to the
	// next segment): the transport breaks streaming and must
	// reacquire it. The model, calibrated on long locates, misses
	// this region — the paper's explanation for the error growth on
	// large schedules, "numerous short locates ... less accurate".
	// Between uniformly random segment pairs a case-1 move needs the
	// same track and a small forward distance (~0.03% of pairs), so
	// raw locate accuracy (Section 3) is unaffected.
	ReacquireSec = 0.6
	// ReacquireSkipSections is the case-1 distance above which a
	// move is a skip rather than a continuation of streaming.
	ReacquireSkipSections = 0.03
	// OvershootSettleSec is the settle cost of an overshooting locate
	// on top of the travel to its (wrong) landing point.
	OvershootSettleSec = 2.5
	// RecalibrateSec is the servo-reacquisition cost at the beginning
	// of tape after a lost position, on top of the rewind itself.
	RecalibrateSec = 4.0
)

// ErrEndOfTape is returned when a read would run past the last
// segment. The remaining sentinels live in errors.go.
var ErrEndOfTape = errors.New("drive: end of tape")

// Stats accumulates operation counts and wear indicators.
type Stats struct {
	// Locates is the number of locate operations executed.
	Locates int
	// SegmentsRead is the number of segments transferred.
	SegmentsRead int
	// Rewinds is the number of rewind operations.
	Rewinds int
	// LocateSec, ReadSec and RewindSec partition the busy time.
	LocateSec float64
	ReadSec   float64
	RewindSec float64
	// WaitSec is host-imposed idle time (retry backoff) charged via
	// Wait.
	WaitSec float64
	// Recalibrations counts rewind-to-BOT recoveries from lost servo
	// position; each also counts as a Rewind.
	Recalibrations int
	// FaultsInjected counts injected failures surfaced as errors
	// (transient, overshoot, lost position, media).
	FaultsInjected int
	// DistanceSections is the total physical distance the tape moved
	// under the head, in section units. Dividing by the track length
	// approximates head passes, the tape-wear unit of the paper's
	// Section 2 (DLT media is rated for 500,000 passes).
	DistanceSections float64
}

// HeadPasses estimates full-length head passes from the distance
// moved.
func (s Stats) HeadPasses(p geometry.Params) float64 {
	return s.DistanceSections / p.NominalTrackLength()
}

// Drive is one emulated transport with one loaded cartridge. It is
// not safe for concurrent use; a real SCSI device serializes
// commands, and so do we.
type Drive struct {
	tape    *geometry.Tape
	truth   *locate.Model // exact geometry, personality-adjusted constants
	nominal geometry.Params
	rng     *rand48.Source
	noisy   bool
	inj     *fault.Injector
	trace   TraceFunc

	pos   int
	lost  bool
	clock float64
	stats Stats
}

// Option configures a Drive.
type Option func(*Drive)

// WithNoiseSeed seeds the measurement-noise generator; the default
// seed derives from the cartridge serial so repeated runs repeat.
func WithNoiseSeed(seed int64) Option {
	return func(d *Drive) { d.rng = rand48.New(seed) }
}

// WithoutNoise disables measurement noise and outliers (end-zone
// error and personality remain: they are properties of the physics,
// not of measurement).
func WithoutNoise() Option {
	return func(d *Drive) { d.noisy = false }
}

// New loads a cartridge into a fresh drive. The head starts at the
// beginning of tape (segment 0).
func New(tape *geometry.Tape, opts ...Option) *Drive {
	d := &Drive{
		tape:    tape,
		truth:   locate.NewModel(tape.TruthView()),
		nominal: tape.Params(),
		rng:     rand48.New(tape.Serial()*7919 + 17),
		noisy:   true,
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Tape returns the loaded cartridge.
func (d *Drive) Tape() *geometry.Tape { return d.tape }

// Params returns the nominal (data sheet) profile of the drive.
func (d *Drive) Params() geometry.Params { return d.nominal }

// Position returns the segment number the head is positioned to read.
func (d *Drive) Position() int { return d.pos }

// Clock returns the accumulated busy time in seconds.
func (d *Drive) Clock() float64 { return d.clock }

// Stats returns the operation counters so far.
func (d *Drive) Stats() Stats { return d.stats }

// ResetClock zeroes the clock and counters (the head stays put).
func (d *Drive) ResetClock() {
	d.clock = 0
	d.stats = Stats{}
}

// severity is a deterministic per-(track, section) factor in
// [0.4, 1.0]: different regions of the tape misbehave by different,
// repeatable amounts.
func severity(track, section int) float64 {
	h := uint64(track*31+section)*0x9E3779B9 + 0x7F4A7C15
	h ^= h >> 13
	return 0.4 + 0.6*float64(h%1024)/1023
}

// backhitchError is the structured model deficiency on short
// same-track repositionings; see BackhitchMaxSec.
func (d *Drive) backhitchError(mo locate.Maneuver, pl geometry.Placement) float64 {
	if mo.TrackSwap || mo.ScanSections >= BackhitchScanSections {
		return 0
	}
	if mo.Case != locate.Case2 && mo.Case != locate.Case3 {
		return 0
	}
	return BackhitchMaxSec * severity(pl.Track, pl.Section)
}

// endZoneError is the structured model deficiency near track ends:
// deterministic per destination (it is physics, not noise), largest
// at the physical edge of the track, zero beyond EndZoneWidth.
func (d *Drive) endZoneError(pl geometry.Placement) float64 {
	tv := d.tape.View().Track(pl.Track)
	s := tv.Sections()
	lo := math.Min(tv.BoundPos[0], tv.BoundPos[s])
	hi := math.Max(tv.BoundPos[0], tv.BoundPos[s])
	dist := math.Min(pl.Pos-lo, hi-pl.Pos)
	if dist >= EndZoneWidth || dist < 0 {
		return 0
	}
	return EndZoneMaxSec * severity(pl.Track, pl.Section) * (1 - dist/EndZoneWidth)
}

// noise draws the per-operation measurement jitter: approximately
// Gaussian (sum of three uniforms), plus a rare servo-retry outlier.
func (d *Drive) noise() float64 {
	if !d.noisy {
		return 0
	}
	u := d.rng.Drand48() + d.rng.Drand48() + d.rng.Drand48() - 1.5
	n := u * NoiseSigmaSec * 2 // sum of 3 uniforms has sigma = sqrt(3/12)*2
	if d.rng.Drand48() < OutlierProb {
		n += OutlierMinSec + (OutlierMaxSec-OutlierMinSec)*d.rng.Drand48()
	}
	return n
}

// Locate positions the head to the reading start of segment lbn and
// returns the elapsed time. It is the paper's locate primitive (the
// tape analogue of a disk seek).
//
// With a fault injector attached, a locate may overshoot (the head
// lands past the target; the returned *FaultError records where, and
// the caller re-locates from there) or lose servo position (every
// further operation fails with ErrLostPosition until Recalibrate).
// Either way the failed attempt's travel is charged to the clock.
func (d *Drive) Locate(lbn int) (float64, error) {
	start := d.clock
	t, err := d.locate(lbn)
	d.emit(OpLocate, lbn, start, err)
	return t, err
}

func (d *Drive) locate(lbn int) (float64, error) {
	if lbn < 0 || lbn >= d.tape.Segments() {
		return 0, fmt.Errorf("%w: locate to segment %d outside [0,%d)", ErrOutOfRange, lbn, d.tape.Segments())
	}
	if d.lost {
		return 0, &FaultError{Op: "locate", Segment: lbn, Pos: d.pos, Class: fault.LostPosition, Err: ErrLostPosition}
	}
	switch d.inj.OnLocate() {
	case fault.Overshoot:
		landing := lbn + d.inj.OvershootSegments()
		if max := d.tape.Segments() - 1; landing > max {
			landing = max
		}
		t := d.move(landing) + OvershootSettleSec
		d.clock += OvershootSettleSec
		d.stats.LocateSec += OvershootSettleSec
		d.stats.FaultsInjected++
		return t, &FaultError{Op: "locate", Segment: lbn, Pos: d.pos, Elapsed: t, Class: fault.Overshoot, Err: ErrOvershoot}
	case fault.LostPosition:
		// The transport travels for the intended locate, then the
		// servo gives up: the attempt costs its full time and the
		// head position stops being trustworthy.
		t := d.move(lbn)
		d.lost = true
		d.stats.FaultsInjected++
		return t, &FaultError{Op: "locate", Segment: lbn, Pos: d.pos, Elapsed: t, Class: fault.LostPosition, Err: ErrLostPosition}
	}
	return d.move(lbn), nil
}

// move executes the physical positioning to lbn — the fault-free
// locate — charging the clock and stats.
func (d *Drive) move(lbn int) float64 {
	var t float64
	if lbn != d.pos {
		// The truth view shares the tape's geometry, so its placements
		// are the tape's own.
		mv := d.truth.Motion(d.pos, lbn)
		t = mv.Sec
		pl, from, mo := mv.To, mv.From, mv.Maneuver
		if mo.Case == locate.Case1 {
			// A short forward motion is mostly just reading: no
			// landing maneuver, no end-zone error, only slight speed
			// jitter — plus the streaming-reacquisition cost when
			// the move skips over data.
			if mo.ReadSections > ReacquireSkipSections {
				t += ReacquireSec * severity(pl.Track, pl.Section)
			}
			if d.noisy {
				t *= 1 + 0.02*(2*d.rng.Drand48()-1)
			}
			d.stats.DistanceSections += math.Abs(pl.Pos - from.Pos)
		} else {
			t += d.endZoneError(pl)
			t += d.backhitchError(mo, pl)
			t += d.noise()
			if t < 0 {
				t = 0
			}
			// Distance moved: the direct span plus the overshoot to
			// the landing key point and back, up to ~2 sections.
			d.stats.DistanceSections += math.Abs(pl.Pos-from.Pos) + 2
		}
	}
	d.pos = lbn
	d.clock += t
	d.stats.Locates++
	d.stats.LocateSec += t
	return t
}

// Read transfers n segments starting at the current position and
// leaves the head after the last segment read. It returns the
// elapsed time.
//
// With a fault injector attached, a read may fail transiently (the
// transfer streamed and is charged in full, but the data failed its
// check — locate back and retry) or hit a permanently unreadable
// segment (ErrMedia: the head parks at the bad segment and every
// retry fails the same way).
func (d *Drive) Read(n int) (float64, error) {
	start := d.clock
	seg := d.pos
	t, err := d.read(n)
	d.emit(OpRead, seg, start, err)
	return t, err
}

func (d *Drive) read(n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: read of %d segments", ErrOutOfRange, n)
	}
	if d.pos+n > d.tape.Segments() {
		return 0, fmt.Errorf("%w: read of %d segments at %d exceeds %d", ErrEndOfTape, n, d.pos, d.tape.Segments())
	}
	if d.lost {
		return 0, &FaultError{Op: "read", Segment: d.pos, Pos: d.pos, Class: fault.LostPosition, Err: ErrLostPosition}
	}
	if d.inj != nil {
		// Media membership is position-deterministic and permanent,
		// so it preempts the per-attempt transient draw.
		for i := 0; i < n; i++ {
			if d.inj.MediaBad(d.pos + i) {
				return d.readMedia(i)
			}
		}
		if d.inj.OnRead() == fault.Transient {
			start := d.pos
			t := d.doRead(n)
			d.stats.FaultsInjected++
			return t, &FaultError{Op: "read", Segment: start, Pos: d.pos, Elapsed: t, Class: fault.Transient, Err: ErrTransient}
		}
	}
	return d.doRead(n), nil
}

// doRead executes the physical transfer of n validated segments.
func (d *Drive) doRead(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += d.truth.ReadTime(d.pos + i)
	}
	if d.pos+n < d.tape.Segments() {
		d.pos += n
	} else {
		d.pos = d.tape.Segments() - 1
	}
	d.clock += t
	d.stats.SegmentsRead += n
	d.stats.ReadSec += t
	d.stats.DistanceSections += t / d.truth.View().Params().ReadSecPerSection
	return t
}

// readMedia fails a read on the unreadable segment good segments past
// the head: the good prefix transfers, the attempt on the bad segment
// is charged, and the head parks at the bad segment so a retry fails
// deterministically.
func (d *Drive) readMedia(good int) (float64, error) {
	bad := d.pos + good
	t := 0.0
	for k := 0; k < good; k++ {
		t += d.truth.ReadTime(d.pos + k)
	}
	t += d.truth.ReadTime(bad)
	d.pos = bad
	d.clock += t
	d.stats.SegmentsRead += good
	d.stats.ReadSec += t
	d.stats.DistanceSections += t / d.truth.View().Params().ReadSecPerSection
	d.stats.FaultsInjected++
	return t, &FaultError{Op: "read", Segment: bad, Pos: d.pos, Elapsed: t, Class: fault.Media, Err: ErrMedia}
}

// Rewind returns the head to the beginning of tape (segment 0), as
// required before ejecting a single-reel cartridge.
func (d *Drive) Rewind() float64 {
	start := d.clock
	t := d.truth.RewindTime(d.pos) + d.noise()
	if t < 0 {
		t = 0
	}
	d.stats.DistanceSections += d.tape.View().Place(d.pos).Pos
	d.pos = 0
	d.clock += t
	d.stats.Rewinds++
	d.stats.RewindSec += t
	d.emit(OpRewind, 0, start, nil)
	return t
}

// AttachFaults attaches a fault injector, or removes it with nil:
// operations then fail with the typed errors of errors.go at the
// injector's configured rates, with the virtual clock still charged
// for each failed attempt. Without an injector (the default) the
// drive's behaviour, noise stream included, is bit-identical to one
// that never had faults. The chained-batch experiments use it to arm
// a drive per scenario.
func (d *Drive) AttachFaults(inj *fault.Injector) { d.inj = inj }

// FaultsEnabled reports whether a fault injector with at least one
// non-zero rate is attached; recovery-aware callers use it to choose
// between fast fault-free paths and recoverable execution.
func (d *Drive) FaultsEnabled() bool {
	return d.inj != nil && d.inj.Config().Enabled()
}

// Lost reports whether the drive has lost servo position; while true,
// Locate and Read fail with ErrLostPosition and Position is not
// trustworthy. Recalibrate clears it.
func (d *Drive) Lost() bool { return d.lost }

// Recalibrate recovers from a lost servo position: the transport
// rewinds to the beginning of tape, where the servo reacquires its
// absolute reference, and settles for RecalibrateSec. It returns the
// elapsed time and is harmless (a plain rewind plus settle) when
// position is not lost.
func (d *Drive) Recalibrate() float64 {
	start := d.clock
	t := d.Rewind() + RecalibrateSec
	d.clock += RecalibrateSec
	d.stats.RewindSec += RecalibrateSec
	d.stats.Recalibrations++
	d.lost = false
	d.emit(OpRecalibrate, 0, start, nil)
	return t
}

// Wait charges host-imposed idle time — retry backoff between attempts
// — to the virtual clock. Non-positive and non-finite durations are
// ignored. The drive does nothing during a Wait; it exists so that
// recovery policies account for the time they cost the request stream.
func (d *Drive) Wait(sec float64) {
	if math.IsNaN(sec) || math.IsInf(sec, 0) || sec <= 0 {
		return
	}
	start := d.clock
	d.clock += sec
	d.stats.WaitSec += sec
	d.emit(OpWait, -1, start, nil)
}

// ExecuteOrder runs a retrieval schedule: locate to and read each
// entry in turn, transferring readLen segments per request (1 if
// readLen < 1). It returns the total elapsed time. This is the
// "measured" side of the paper's validation experiments.
func (d *Drive) ExecuteOrder(order []int, readLen int) (float64, error) {
	if readLen < 1 {
		readLen = 1
	}
	total := 0.0
	for _, lbn := range order {
		lt, err := d.Locate(lbn)
		if err != nil {
			return total, err
		}
		rt, err := d.Read(readLen)
		if err != nil {
			return total, err
		}
		total += lt + rt
	}
	return total, nil
}

// ReadEntireTape executes the READ algorithm: rewind, one sequential
// pass over every segment, and a final rewind. It returns the
// elapsed time.
func (d *Drive) ReadEntireTape() (float64, error) {
	total := 0.0
	if d.pos != 0 {
		total += d.Rewind()
	}
	// One pass: sequential read of every segment; the per-track
	// switches are part of the truth model's full-read time, so
	// charge them explicitly here via locate-free accounting.
	start := d.clock
	t := d.truth.FullReadTime()
	d.stats.SegmentsRead += d.tape.Segments()
	d.stats.ReadSec += t
	d.stats.DistanceSections += float64(d.tape.View().Tracks()) * d.nominal.NominalTrackLength()
	d.clock += t
	d.pos = 0
	total += t
	d.emit(OpFullRead, 0, start, nil)
	return total, nil
}
