package tertiary

import (
	"fmt"
	"math"
	"testing"
)

// boundaryFloats are the values no float knob may take: NaN, both
// infinities and a negative number.
var boundaryFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}

// boundaryCase sets one config field to a value no run can honour.
type boundaryCase struct {
	name string
	set  func(*Config)
}

// configBoundaryCases covers every float field of Config, its fault
// mix and its lifecycle faults at each boundary value, and every count
// field at -1.
func configBoundaryCases() []boundaryCase {
	floats := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"MountSec", func(c *Config, v float64) { c.MountSec = v }},
		{"UnmountSec", func(c *Config, v float64) { c.UnmountSec = v }},
		{"DeadlineSec", func(c *Config, v float64) { c.DeadlineSec = v }},
		{"Faults.TransientRate", func(c *Config, v float64) { c.Faults.TransientRate = v }},
		{"Faults.OvershootRate", func(c *Config, v float64) { c.Faults.OvershootRate = v }},
		{"Faults.LostRate", func(c *Config, v float64) { c.Faults.LostRate = v }},
		{"Faults.MediaRate", func(c *Config, v float64) { c.Faults.MediaRate = v }},
		{"Lifecycle.DriveMTTFSec", func(c *Config, v float64) { c.Lifecycle.DriveMTTFSec = v }},
		{"Lifecycle.DriveMTTRSec", func(c *Config, v float64) { c.Lifecycle.DriveMTTRSec = v }},
		{"Lifecycle.RobotStallRate", func(c *Config, v float64) { c.Lifecycle.RobotStallRate = v }},
		{"Lifecycle.RobotStallSec", func(c *Config, v float64) { c.Lifecycle.RobotStallSec = v }},
		{"Lifecycle.CartridgeLossRate", func(c *Config, v float64) { c.Lifecycle.CartridgeLossRate = v }},
		{"Lifecycle.BadSpotRate", func(c *Config, v float64) { c.Lifecycle.BadSpotRate = v }},
	}
	out := []boundaryCase{
		{"Drives=-1", func(c *Config) { c.Drives = -1 }},
		{"BatchLimit=-1", func(c *Config) { c.BatchLimit = -1 }},
		{"QueueCap=-1", func(c *Config) { c.QueueCap = -1 }},
		{"Faults.BadSpotStart=-1", func(c *Config) { c.Faults.BadSpotStart = -1 }},
		{"Faults.BadSpotLen=-1", func(c *Config) { c.Faults.BadSpotLen = -1 }},
		{"Lifecycle.BadSpotSegments=-1", func(c *Config) { c.Lifecycle.BadSpotSegments = -1 }},
	}
	for _, f := range floats {
		for _, v := range boundaryFloats {
			out = append(out, boundaryCase{fmt.Sprintf("%s=%g", f.name, v), func(c *Config) { f.set(c, v) }})
		}
	}
	return out
}

// TestConfigBoundaries feeds NaN, ±Inf and negative values into every
// float and count field of Config, its fault mix and its lifecycle
// faults, and expects New, and a run opened on a Clone (which skips
// New's checks), to reject each.
func TestConfigBoundaries(t *testing.T) {
	base := smallCfg(1)
	cat := smallCatalog(t, base, 4)
	lib, err := New(base, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configBoundaryCases() {
		cfg := base
		c.set(&cfg)
		if _, err := New(cfg, cat); err == nil {
			t.Errorf("%s: New accepted the config", c.name)
		}
		if _, err := lib.Clone(cfg).StartRun(); err == nil {
			t.Errorf("%s: a Clone's run accepted the config", c.name)
		}
	}
}
