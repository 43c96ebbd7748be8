// The chaos experiment chains the executor's batches on one tape and
// runs on server.Run. Its checks live beside the executor and the
// random-start estimate they exercise, as an external test package:
// server imports sim, so only sim_test can import server.

package sim_test

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/server"
	"serpentine/internal/sim"
)

// chaosDefaults shrinks the sweep for tests.
func chaosDefaults(workers int) server.ChaosConfig {
	return server.ChaosConfig{
		Schedulers: []core.Scheduler{core.NewLOSS(), core.Scan{}},
		Rates:      []float64{0, 4},
		BatchSize:  8,
		Batches:    3,
		Warmup:     1,
		Seed:       5,
		Workers:    workers,
	}
}

// chaosCell runs a one-cell sweep.
func chaosCell(t *testing.T, cfg server.ChaosConfig) server.ChaosCell {
	t.Helper()
	cells, err := server.ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("%d cells, want 1", len(cells))
	}
	return cells[0]
}

// The paper's Figure 3 pseudocode approximates steady-state batched
// service by drawing a fresh random starting position per trial. The
// chained experiment executes the steady state directly; the two must
// agree, which validates the paper's experimental design.
func TestChainedSteadyStateMatchesRandomStart(t *testing.T) {
	c := chaosCell(t, server.ChaosConfig{
		Schedulers: []core.Scheduler{core.NewLOSS()},
		Rates:      []float64{0},
		BatchSize:  96,
		Batches:    30,
		Warmup:     2,
		Seed:       6,
	})
	tape := geometry.MustGenerate(geometry.DLT4000(), 1)
	m, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Model:      m,
		Schedulers: []core.Scheduler{core.NewLOSS()},
		Lengths:    []int{96},
		Trials:     func(int) int { return 30 },
		Start:      sim.RandomStart,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	indep, _ := res.MeanPerLocate("LOSS", 96)
	got := c.Window.DurationSec / float64(c.Window.Size)
	if math.Abs(got-indep) > 0.1*indep {
		t.Fatalf("chained steady state %.2f s/locate vs random-start approximation %.2f: should agree within 10%%", got, indep)
	}
}

// A fault-free chain serves everything with no recovery activity.
func TestChaosCellFaultFree(t *testing.T) {
	c := chaosCell(t, server.ChaosConfig{
		Schedulers: []core.Scheduler{core.NewLOSS()},
		Rates:      []float64{0},
		BatchSize:  8,
		Batches:    4,
		Warmup:     1,
		Seed:       3,
	})
	w := c.Window
	if w.Size != 24 || w.Served != 24 || w.Failed != 0 {
		t.Fatalf("size %d served %d failed %d, want 24/24/0", w.Size, w.Served, w.Failed)
	}
	if w.Retries+w.Replans+w.Recalibrations+w.Fallbacks != 0 || w.RecoverySec != 0 {
		t.Fatalf("recovery activity without faults: %+v", w)
	}
	if len(c.Completions) != 24 {
		t.Fatalf("%d completion samples, want 24", len(c.Completions))
	}
	if c.P99CompletionSec() <= 0 || c.IOsPerHour() <= 0 {
		t.Fatalf("p99 %g, IO/h %g: want both positive", c.P99CompletionSec(), c.IOsPerHour())
	}
}

// The chain under faults must recover and account for it, and
// identical configs must reproduce identical cells.
func TestChaosCellWithFaultsReproducible(t *testing.T) {
	cfg := server.ChaosConfig{
		Schedulers: []core.Scheduler{core.NewLOSS()},
		Rates:      []float64{1},
		Base: fault.Config{
			TransientRate: 0.2,
			OvershootRate: 0.1,
			LostRate:      0.05,
			MediaRate:     0.001,
		},
		BatchSize: 8,
		Batches:   5,
		Warmup:    1,
		Seed:      3,
	}
	a, b := chaosCell(t, cfg), chaosCell(t, cfg)
	w := a.Window
	if w.Retries == 0 {
		t.Fatal("heavy fault mix produced no retries")
	}
	if w.Size != 32 || w.Served+w.Failed != w.Size {
		t.Fatalf("outcome partition broken: %d served + %d failed of %d requests, want 32",
			w.Served, w.Failed, w.Size)
	}
	if len(a.Completions) != w.Served {
		t.Fatalf("%d completion samples for %d served", len(a.Completions), w.Served)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chained fault runs diverged:\n%+v\n%+v", a, b)
	}
	if w.RecoverySec <= 0 || w.RecoverySec >= w.DurationSec {
		t.Fatalf("recovery accounting %f of %f implausible", w.RecoverySec, w.DurationSec)
	}
}

// Negative sizes are errors, not defaults; zero still selects the
// default; a batch must find distinct readable starts; the warmup
// must leave a measured batch; and a fault mix the drive cannot take
// is refused.
func TestChaosSweepRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		edit func(*server.ChaosConfig)
	}{
		{"negative batch size", func(c *server.ChaosConfig) { c.BatchSize = -5 }},
		{"negative batch count", func(c *server.ChaosConfig) { c.Batches = -2 }},
		{"negative warmup", func(c *server.ChaosConfig) { c.Warmup = -1 }},
		{"negative read length", func(c *server.ChaosConfig) { c.ReadLen = -3 }},
		{"read longer than the tape", func(c *server.ChaosConfig) { c.ReadLen = 1 << 20 }},
		{"batch larger than the tape", func(c *server.ChaosConfig) { c.BatchSize = 1 << 20 }},
		{"warmup equal to batches", func(c *server.ChaosConfig) { c.Warmup = 3 }},
		{"warmup above batches", func(c *server.ChaosConfig) { c.Warmup = 4 }},
		{"default warmup over two batches", func(c *server.ChaosConfig) { c.Warmup, c.Batches = 0, 2 }},
		{"invalid fault mix", func(c *server.ChaosConfig) {
			c.Base = fault.Config{OvershootRate: 0.6, LostRate: 0.6}
			c.Rates = []float64{1}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := chaosDefaults(1)
			c.edit(&cfg)
			if _, err := server.ChaosSweep(cfg); err == nil {
				t.Fatalf("config %+v accepted", cfg)
			}
		})
	}
	cfg := chaosDefaults(1)
	cfg.Schedulers = []core.Scheduler{core.Scan{}}
	cfg.Rates = []float64{0}
	cfg.BatchSize, cfg.Warmup, cfg.ReadLen = 0, 0, 0
	cfg.Batches = 3
	cells, err := server.ChaosSweep(cfg)
	if err != nil {
		t.Fatalf("zero sizes must select the defaults: %v", err)
	}
	if got := cells[0].Window.Size; got != 96 {
		t.Fatalf("default 96-request batches, one measured: window of %d", got)
	}
}

// Long reads draw only starts the whole read fits after: with seed 1,
// drawing over the whole tape puts a 2000-segment read past its end.
func TestChaosDrawsReadableStarts(t *testing.T) {
	c := chaosCell(t, server.ChaosConfig{
		Schedulers: []core.Scheduler{core.NewSLTF()},
		Rates:      []float64{0},
		Batches:    4,
		Warmup:     1,
		ReadLen:    2000,
		Seed:       1,
	})
	if c.Window.Served != 3*96 {
		t.Fatalf("served %d of %d", c.Window.Served, 3*96)
	}
}

// A seeded chaos run is reproducible: the same seed and fault config
// give identical cells across runs and across worker counts.
func TestChaosSweepReproducibleAcrossWorkerCounts(t *testing.T) {
	one, err := server.ChaosSweep(chaosDefaults(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := server.ChaosSweep(chaosDefaults(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 4 || len(four) != 4 {
		t.Fatalf("cell counts %d/%d, want 4 (2 schedulers x 2 rates)", len(one), len(four))
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("cells differ between 1 and 4 workers:\n%+v\n%+v", one, four)
	}
	// The faulted column must show recovery activity somewhere.
	activity := 0
	for _, c := range one {
		if c.Rate > 0 {
			activity += c.Window.Retries + c.Window.Replans + c.Window.Failed
		}
	}
	if activity == 0 {
		t.Fatal("rate x4 produced no recovery activity in any cell")
	}
	// And the baseline column must show none.
	for _, c := range one {
		if c.Rate == 0 && (c.Window.Retries != 0 || c.Window.Failed != 0) {
			t.Fatalf("fault-free baseline shows recovery: %+v", c.Window)
		}
	}
}

func TestChaosSkipsOPTBeyondItsLimit(t *testing.T) {
	cfg := chaosDefaults(1)
	cfg.Schedulers = []core.Scheduler{core.NewOPT(12), core.Scan{}}
	cfg.BatchSize = 16 // beyond OPT's limit
	cells, err := server.ChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Alg == "OPT" {
			t.Fatal("OPT not skipped at batch 16")
		}
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2 (SCAN only)", len(cells))
	}
}

func TestWriteChaosFormats(t *testing.T) {
	cells, err := server.ChaosSweep(chaosDefaults(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := server.WriteChaos(&buf, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# fault rate x0", "# fault rate x4", "LOSS", "SCAN", "IO/h", "p99 s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos table missing %q:\n%s", want, out)
		}
	}
}

// Degenerate windows — nothing measured, everything failed, or a
// poisoned total — must yield a zero rate, never NaN or Inf.
func TestIOsPerHourGuardsDegenerateInputs(t *testing.T) {
	cases := []struct {
		name string
		w    server.Cut
	}{
		{"zero value", server.Cut{}},
		{"requests but no time", server.Cut{Size: 10}},
		{"time but no requests", server.Cut{DurationSec: 100}},
		{"all failed", server.Cut{Size: 10, Failed: 10, DurationSec: 100}},
		{"more failures than requests", server.Cut{Size: 5, Failed: 9, DurationSec: 100}},
		{"NaN total", server.Cut{Size: 10, DurationSec: math.NaN()}},
		{"Inf total", server.Cut{Size: 10, DurationSec: math.Inf(1)}},
		{"negative total", server.Cut{Size: 10, DurationSec: -5}},
	}
	for _, c := range cases {
		if got := (server.ChaosCell{Window: c.w}).IOsPerHour(); got != 0 {
			t.Errorf("%s: IOsPerHour() = %v, want 0", c.name, got)
		}
	}
	ok := server.ChaosCell{Window: server.Cut{Size: 10, Failed: 1, DurationSec: 3600}}
	if got := ok.IOsPerHour(); got != 9 {
		t.Errorf("9 completed in an hour: IOsPerHour() = %v, want 9", got)
	}
}

// P99 over an empty completion set (an all-failed run) must not panic.
func TestP99CompletionGuardsEmpty(t *testing.T) {
	if got := (server.ChaosCell{}).P99CompletionSec(); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
}
