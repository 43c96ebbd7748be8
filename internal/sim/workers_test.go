package sim

import (
	"math"
	"testing"

	"serpentine/internal/core"
)

// A single-worker run is the clean Figure 6 timing configuration: one
// goroutine runs every trial block, the CPU stopwatch covers schedule
// generation only, and the accumulated counts must come out exact. Its
// statistics must equal a parallel run's of the same seed bit for bit.
func TestSingleWorkerCPUTiming(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(Config{
			Model:      dltModel(t),
			Schedulers: []core.Scheduler{core.NewSLTF(), core.NewLOSS(), core.Scan{}, core.Weave{}},
			Lengths:    []int{16, 64},
			Trials:     func(int) int { return 20 },
			Seed:       9,
			Workers:    workers,
			Verify:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(1)
	for _, lr := range single.Lengths {
		for name, a := range lr.Alg {
			if a.Schedules != 20 {
				t.Errorf("%s n=%d: %d schedules, want 20", name, lr.N, a.Schedules)
			}
			if a.CPU <= 0 {
				t.Errorf("%s n=%d: no CPU time accumulated", name, lr.N)
			}
			if a.CPUPerSchedule() <= 0 {
				t.Errorf("%s n=%d: CPUPerSchedule not positive", name, lr.N)
			}
		}
	}
	parallel := run(4)
	for _, n := range []int{16, 64} {
		for _, name := range []string{"SLTF", "LOSS", "SCAN", "WEAVE"} {
			a, okA := single.MeanPerLocate(name, n)
			b, okB := parallel.MeanPerLocate(name, n)
			if !okA || !okB {
				t.Fatalf("%s n=%d missing from a run", name, n)
			}
			// The trials are seeded per (length, trial) pair and the
			// trial blocks merge in index order, so not even the last
			// bit depends on the worker count.
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s n=%d: single-worker mean %.12f differs from parallel %.12f", name, n, a, b)
			}
		}
	}
}
