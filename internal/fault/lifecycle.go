package fault

import (
	"fmt"
	"math"

	"serpentine/internal/rand48"
)

// LifecycleConfig sets the component-lifecycle failure rates: whole
// drives dying and being repaired, the robot arm stalling mid
// exchange, and cartridges being destroyed or developing a
// contiguous bad-spot region. The zero value disables every class.
//
// These are a severity tier above Config's per-operation faults: a
// per-operation fault costs one retry or one replan, a lifecycle
// fault takes a component out of service. The same determinism
// discipline applies — see the package comment's draw-stream
// alignment rule. Drive outages are drawn from one private stream
// per drive (two draws per outage: time-to-failure, then repair
// duration, both exponential), consumed strictly in virtual-time
// order, so outage schedules do not depend on how dispatch
// interleaves across drives. Robot stalls are a pure function of
// (Seed, exchange ordinal) and cartridge loss and bad spots are pure
// functions of (Seed, serial[, mount ordinal]), so they do not
// depend on visit order at all.
type LifecycleConfig struct {
	// DriveMTTFSec is the mean virtual time between failures of one
	// drive (exponentially distributed). 0 means drives never fail.
	DriveMTTFSec float64
	// DriveMTTRSec is the mean repair duration (exponentially
	// distributed). Required > 0 when DriveMTTFSec > 0.
	DriveMTTRSec float64
	// RobotStallRate is the probability that one cartridge exchange
	// stalls the arm (a dropped grip, a barcode re-scan, a shuttle
	// retry).
	RobotStallRate float64
	// RobotStallSec is the mean stall duration; 0 selects 120. The
	// actual stall is RobotStallSec scaled by a deterministic factor
	// in [0.5, 1.5) drawn from the exchange ordinal.
	RobotStallSec float64
	// CartridgeLossRate is the probability, per mount attempt, that
	// the cartridge is discovered destroyed (snapped leader, dropped
	// by the picker, shell cracked). A lost cartridge stays lost.
	CartridgeLossRate float64
	// BadSpotRate is the fraction of cartridges carrying one
	// contiguous permanently unreadable region (creased media,
	// delamination).
	BadSpotRate float64
	// BadSpotSegments is the bad region's length; 0 selects 64.
	BadSpotSegments int
	// Seed seeds every stream and hash above.
	Seed int64
}

// Enabled reports whether any lifecycle class can fire.
func (c LifecycleConfig) Enabled() bool {
	return c.DriveMTTFSec > 0 || c.RobotStallRate > 0 ||
		c.CartridgeLossRate > 0 || c.BadSpotRate > 0
}

// Validate rejects NaN or negative rates and times, probabilities
// outside [0,1], and an enabled drive-failure process without a
// positive MTTR.
func (c LifecycleConfig) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"RobotStallRate", c.RobotStallRate},
		{"CartridgeLossRate", c.CartridgeLossRate},
		{"BadSpotRate", c.BadSpotRate},
	} {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("fault: %s %v outside [0,1]", r.name, r.v)
		}
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DriveMTTFSec", c.DriveMTTFSec},
		{"DriveMTTRSec", c.DriveMTTRSec},
		{"RobotStallSec", c.RobotStallSec},
	} {
		if r.v < 0 || math.IsNaN(r.v) || math.IsInf(r.v, 0) {
			return fmt.Errorf("fault: %s %v is negative or not finite", r.name, r.v)
		}
	}
	if c.DriveMTTFSec > 0 && c.DriveMTTRSec <= 0 {
		return fmt.Errorf("fault: DriveMTTFSec %g without a positive DriveMTTRSec", c.DriveMTTFSec)
	}
	if c.BadSpotSegments < 0 {
		return fmt.Errorf("fault: BadSpotSegments %d is negative", c.BadSpotSegments)
	}
	return nil
}

// withDefaults resolves the zero-value fields.
func (c LifecycleConfig) withDefaults() LifecycleConfig {
	if c.RobotStallSec == 0 {
		c.RobotStallSec = 120
	}
	if c.BadSpotSegments == 0 {
		c.BadSpotSegments = 64
	}
	return c
}

// Lifecycle draws component-lifecycle events for one run. Like the
// per-operation Injector it belongs to one goroutine: the event loop
// that owns the run.
type Lifecycle struct {
	cfg    LifecycleConfig
	drives map[int]*rand48.Source
}

// NewLifecycle returns a generator for the given config.
func NewLifecycle(cfg LifecycleConfig) *Lifecycle {
	return &Lifecycle{cfg: cfg.withDefaults(), drives: make(map[int]*rand48.Source)}
}

// driveStream returns drive's private outage stream, created on first
// use.
func (lc *Lifecycle) driveStream(drive int) *rand48.Source {
	s := lc.drives[drive]
	if s == nil {
		s = rand48.New(lc.cfg.Seed*48271 + int64(drive)*2654435761 + 1282)
		lc.drives[drive] = s
	}
	return s
}

// exp draws an exponential variate with the given mean from src. The
// uniform is taken from the open interval (0,1] so the logarithm is
// finite.
func exp(src *rand48.Source, mean float64) float64 {
	u := 1 - src.Drand48()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// NextOutage draws the next outage of one drive: the gap from the
// previous repair (or from time zero) until the failure, then the
// repair duration. Each call consumes exactly two variates from the
// drive's private stream; callers must consume outages in virtual
// time order per drive, which the event loop does naturally. ok is
// false when drive failures are disabled.
func (lc *Lifecycle) NextOutage(drive int) (gapSec, repairSec float64, ok bool) {
	if lc == nil || lc.cfg.DriveMTTFSec <= 0 {
		return 0, 0, false
	}
	src := lc.driveStream(drive)
	return exp(src, lc.cfg.DriveMTTFSec), exp(src, lc.cfg.DriveMTTRSec), true
}

// lifecycleHash mixes the seed with two coordinates, splitmix-style.
func lifecycleHash(seed int64, a, b int64) uint64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xBF58476D1CE4E5B9 + uint64(b)*0x94D049BB133111EB
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h%(1<<24)) / float64(1<<24) }

// RobotStall returns the stall duration afflicting the ordinal-th
// robot exchange of the run (0 for no stall). It is a pure function
// of (Seed, ordinal): stable whichever drive's exchange it is.
func (lc *Lifecycle) RobotStall(ordinal int) float64 {
	if lc == nil || lc.cfg.RobotStallRate <= 0 {
		return 0
	}
	h := lifecycleHash(lc.cfg.Seed, 1, int64(ordinal))
	if unit(h) >= lc.cfg.RobotStallRate {
		return 0
	}
	// Scale the mean by [0.5, 1.5) from independent hash bits.
	return lc.cfg.RobotStallSec * (0.5 + unit(h>>24))
}

// CartridgeLost reports whether the cartridge is discovered destroyed
// at its mount-th mount attempt (0-based). A pure function of (Seed,
// serial, mount); once it reports true for some mount the caller
// marks the cartridge dead, so later ordinals are never asked.
func (lc *Lifecycle) CartridgeLost(serial int64, mount int) bool {
	if lc == nil || lc.cfg.CartridgeLossRate <= 0 {
		return false
	}
	return unit(lifecycleHash(lc.cfg.Seed, 2+serial*2, int64(mount))) < lc.cfg.CartridgeLossRate
}

// BadSpot returns the cartridge's permanently unreadable region, if
// it has one: a pure function of (Seed, serial) placing a
// BadSpotSegments-long window uniformly on the tape's segments. The
// region is clamped inside [0, segments).
func (lc *Lifecycle) BadSpot(serial int64, segments int) (start, n int, ok bool) {
	if lc == nil || lc.cfg.BadSpotRate <= 0 || segments <= 0 {
		return 0, 0, false
	}
	h := lifecycleHash(lc.cfg.Seed, 3+serial*2, 0)
	if unit(h) >= lc.cfg.BadSpotRate {
		return 0, 0, false
	}
	n = lc.cfg.BadSpotSegments
	if n > segments {
		n = segments
	}
	start = int((h >> 24) % uint64(segments-n+1))
	return start, n, true
}
