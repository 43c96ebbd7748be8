package hsm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"serpentine/internal/tertiary"
)

// TestConfigBoundaries feeds NaN, ±Inf and negative values into the
// tier's own count (CapacityBytes) and into the library config a tier
// runs over — its counts, exchange times, deadline, fault mix and
// lifecycle faults — with the cache on and off. The capacity fails the
// tier's check; the rest reach the run the tier opens and must fail
// the shard library's check there, since a Clone skips New's.
func TestConfigBoundaries(t *testing.T) {
	base := testStore(t)
	if _, err := NewTier(cloneFor(base, tertiary.Config{}), Config{CapacityBytes: -1}); err == nil ||
		!strings.Contains(err.Error(), "hsm:") {
		t.Errorf("CapacityBytes=-1: err %v, want the tier's check", err)
	}
	floats := []struct {
		name string
		set  func(*tertiary.Config, float64)
	}{
		{"MountSec", func(c *tertiary.Config, v float64) { c.MountSec = v }},
		{"UnmountSec", func(c *tertiary.Config, v float64) { c.UnmountSec = v }},
		{"DeadlineSec", func(c *tertiary.Config, v float64) { c.DeadlineSec = v }},
		{"Faults.TransientRate", func(c *tertiary.Config, v float64) { c.Faults.TransientRate = v }},
		{"Lifecycle.DriveMTTFSec", func(c *tertiary.Config, v float64) { c.Lifecycle.DriveMTTFSec = v }},
		{"Lifecycle.CartridgeLossRate", func(c *tertiary.Config, v float64) { c.Lifecycle.CartridgeLossRate = v }},
	}
	type boundaryCase struct {
		name string
		set  func(*tertiary.Config)
	}
	cases := []boundaryCase{
		{"Drives=-1", func(c *tertiary.Config) { c.Drives = -1 }},
		{"BatchLimit=-1", func(c *tertiary.Config) { c.BatchLimit = -1 }},
		{"QueueCap=-1", func(c *tertiary.Config) { c.QueueCap = -1 }},
		{"Lifecycle.BadSpotSegments=-1", func(c *tertiary.Config) { c.Lifecycle.BadSpotSegments = -1 }},
	}
	for _, f := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			cases = append(cases, boundaryCase{fmt.Sprintf("%s=%g", f.name, v), func(c *tertiary.Config) { f.set(c, v) }})
		}
	}
	for _, c := range cases {
		for _, capacity := range []int64{0, 32 << 20} {
			var cfg tertiary.Config
			c.set(&cfg)
			_, err := NewTier(cloneFor(base, cfg), Config{CapacityBytes: capacity})
			if err == nil || !strings.Contains(err.Error(), "tertiary:") {
				t.Errorf("%s, capacity %d: err %v, want the shard library's check", c.name, capacity, err)
			}
		}
	}
}
