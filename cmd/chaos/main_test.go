package main

import (
	"bytes"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/server"
)

// TestHeaderReportsResolvedShape pins the header to the sweep that
// ran: zero batch size, batch count and warmup select their defaults,
// and the header prints those, not the flags. With the default flags
// it is the first line of results/chaos.txt.
func TestHeaderReportsResolvedShape(t *testing.T) {
	cases := []struct {
		name string
		cfg  server.ChaosConfig
		want string
	}{
		{"defaults", server.ChaosConfig{BatchSize: 96, Batches: 12, Warmup: 2, Seed: 1, Base: fault.Default(0)},
			"# chaos: 96-request batches, 10 measured batches/cell, base mix transient=0.02 overshoot=0.01 lost=0.002 media=0.0005, seed 1\n\n"},
		{"zero sizes", server.ChaosConfig{Batches: 3, Seed: 1, Base: fault.Default(0)},
			"# chaos: 96-request batches, 1 measured batches/cell, base mix transient=0.02 overshoot=0.01 lost=0.002 media=0.0005, seed 1\n\n"},
		{"zero mix", server.ChaosConfig{BatchSize: 10, Batches: 5, Warmup: 1, Seed: 7},
			"# chaos: 10-request batches, 4 measured batches/cell, base mix transient=0.02 overshoot=0.01 lost=0.002 media=0.0005, seed 7\n\n"},
	}
	for _, tc := range cases {
		var b bytes.Buffer
		writeHeader(&b, tc.cfg)
		if got := b.String(); got != tc.want {
			t.Errorf("%s: header\n%q\nwant\n%q", tc.name, got, tc.want)
		}
	}
}

// TestHeaderMatchesServedRequests runs the sweep the header describes
// (-batch 0 -batches 3 -warmup 0 -algs SCAN -rates 0) and checks that
// the measured window holds the header's batch size times its measured
// batch count.
func TestHeaderMatchesServedRequests(t *testing.T) {
	scan, err := core.ByName("SCAN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.ChaosConfig{
		Batches:    3,
		Rates:      []float64{0},
		Schedulers: []core.Scheduler{scan},
		Seed:       1,
		Workers:    1,
	}
	cells, err := server.ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	writeHeader(&b, cfg)
	if !strings.HasPrefix(b.String(), "# chaos: 96-request batches, 1 measured batches/cell,") {
		t.Fatalf("header %q", b.String())
	}
	if len(cells) != 1 || cells[0].Window.Size != 96 {
		t.Fatalf("measured window %+v, want one cell of 96 requests", cells)
	}
}
