package server

import (
	"fmt"
	"math"
	"testing"
)

// TestConfigBoundaries feeds NaN, ±Inf and negative values into every
// float and count field of Config and its fault mix, and expects Run
// to reject each before serving anything.
func TestConfigBoundaries(t *testing.T) {
	type boundaryCase struct {
		name string
		set  func(*Config)
	}
	cases := []boundaryCase{
		{"QueueCap=-1", func(c *Config) { c.QueueCap = -1 }},
		{"MaxBatch=-1", func(c *Config) { c.MaxBatch = -1 }},
		{"ReadLen=-1", func(c *Config) { c.ReadLen = -1 }},
		{"Faults.BadSpotStart=-1", func(c *Config) { c.Faults.BadSpotStart = -1 }},
		{"Faults.BadSpotLen=-1", func(c *Config) { c.Faults.BadSpotLen = -1 }},
	}
	floats := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"WindowSec", func(c *Config, v float64) { c.WindowSec = v }},
		{"Faults.TransientRate", func(c *Config, v float64) { c.Faults.TransientRate = v }},
		{"Faults.OvershootRate", func(c *Config, v float64) { c.Faults.OvershootRate = v }},
		{"Faults.LostRate", func(c *Config, v float64) { c.Faults.LostRate = v }},
		{"Faults.MediaRate", func(c *Config, v float64) { c.Faults.MediaRate = v }},
	}
	for _, f := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			cases = append(cases, boundaryCase{fmt.Sprintf("%s=%g", f.name, v), func(c *Config) { f.set(c, v) }})
		}
	}
	arrivals := []Request{{Segment: 1, ArrivalSec: 0}}
	for _, c := range cases {
		var cfg Config
		c.set(&cfg)
		if _, err := Run(cfg, arrivals); err == nil {
			t.Errorf("%s: Run accepted the config", c.name)
		}
	}
}
