package fleet

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestRunConfigBoundaries feeds NaN, ±Inf and negative values into
// every float and count field of RunConfig and its lifecycle faults,
// and expects Run to reject each: a negative drive count in the
// fleet's own check, a negative cache capacity in the staging tier's,
// and everything passed through to the shards in the shard library's.
func TestRunConfigBoundaries(t *testing.T) {
	fl, err := New(StoreConfig{TapeCount: 4, Objects: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(240, 10, 1, 4, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	type boundaryCase struct {
		name  string
		set   func(*RunConfig)
		check string // the error names the check that rejected it
	}
	cases := []boundaryCase{
		{"Drives=-1", func(c *RunConfig) { c.Drives = -1 }, "fleet: negative drive count"},
		{"Cache.CapacityBytes=-1", func(c *RunConfig) { c.Cache.CapacityBytes = -1 }, "hsm:"},
		{"BatchLimit=-1", func(c *RunConfig) { c.BatchLimit = -1 }, "tertiary:"},
		{"QueueCap=-1", func(c *RunConfig) { c.QueueCap = -1 }, "tertiary:"},
		{"Lifecycle.BadSpotSegments=-1", func(c *RunConfig) { c.Lifecycle.BadSpotSegments = -1 }, "tertiary:"},
	}
	floats := []struct {
		name string
		set  func(*RunConfig, float64)
	}{
		{"DeadlineSec", func(c *RunConfig, v float64) { c.DeadlineSec = v }},
		{"Lifecycle.DriveMTTFSec", func(c *RunConfig, v float64) { c.Lifecycle.DriveMTTFSec = v }},
		{"Lifecycle.DriveMTTRSec", func(c *RunConfig, v float64) { c.Lifecycle.DriveMTTRSec = v }},
		{"Lifecycle.RobotStallRate", func(c *RunConfig, v float64) { c.Lifecycle.RobotStallRate = v }},
		{"Lifecycle.RobotStallSec", func(c *RunConfig, v float64) { c.Lifecycle.RobotStallSec = v }},
		{"Lifecycle.CartridgeLossRate", func(c *RunConfig, v float64) { c.Lifecycle.CartridgeLossRate = v }},
		{"Lifecycle.BadSpotRate", func(c *RunConfig, v float64) { c.Lifecycle.BadSpotRate = v }},
	}
	for _, f := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			cases = append(cases, boundaryCase{fmt.Sprintf("%s=%g", f.name, v), func(c *RunConfig) { f.set(c, v) }, "tertiary:"})
		}
	}
	for _, c := range cases {
		var cfg RunConfig
		c.set(&cfg)
		if _, _, err := fl.Run(cfg, stream); err == nil || !strings.Contains(err.Error(), c.check) {
			t.Errorf("%s: err %v, want %q", c.name, err, c.check)
		}
	}
}
