package server

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/obs"
	"serpentine/internal/workload"
)

// smallSweep is a sweep config small enough for the test suite but
// still covering multiple rates, policies and schedulers.
func smallSweep(workers int, reg *obs.Registry) SweepConfig {
	return SweepConfig{
		RatesPerHour: []float64{60, 120},
		Policies:     AllPolicies(),
		Schedulers:   []core.Scheduler{core.Sort{}, core.NewLOSS()},
		Requests:     30,
		Seed:         42,
		Workers:      workers,
		Reg:          reg,
	}
}

// TestSweepDeterministicAcrossWorkers is the determinism contract:
// the rendered table, the merged metrics dump and every cell's spans
// are byte-identical whether the cells run on one worker or eight.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) (table, prom string, spans [][]obs.Span) {
		t.Helper()
		reg := obs.NewRegistry()
		cfg := smallSweep(workers, reg)
		cfg.SpanCap = 1 << 12
		cells, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tb, pb bytes.Buffer
		if err := WriteOnline(&tb, cells); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteProm(&pb); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			spans = append(spans, c.Spans)
		}
		return tb.String(), pb.String(), spans
	}
	t1, p1, s1 := render(1)
	t8, p8, s8 := render(8)
	if t1 != t8 {
		t.Fatalf("sweep table differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", t1, t8)
	}
	if p1 != p8 {
		t.Fatalf("merged metrics dump differs between 1 and 8 workers")
	}
	for i := range s1 {
		if len(s1[i]) == 0 {
			t.Fatalf("cell %d recorded no spans", i)
		}
		if !reflect.DeepEqual(s1[i], s8[i]) {
			t.Fatalf("cell %d: spans differ between 1 and 8 workers", i)
		}
	}
	// And a rerun at the same worker count reproduces itself.
	t8b, p8b, s8b := render(8)
	if t8 != t8b || p8 != p8b || !reflect.DeepEqual(s8, s8b) {
		t.Fatal("sweep is not reproducible across reruns")
	}
}

func TestSweepCellOrderMatchesSpec(t *testing.T) {
	cells, err := Sweep(smallSweep(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 3 * 2 // rates x policies x schedulers
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	i := 0
	for _, rate := range []float64{60, 120} {
		for _, pol := range AllPolicies() {
			for _, alg := range []string{"SORT", "LOSS"} {
				c := cells[i]
				if c.RatePerHour != rate || c.Policy != pol || c.Alg != alg {
					t.Fatalf("cell %d = (%g,%s,%s), want (%g,%s,%s)",
						i, c.RatePerHour, c.Policy, c.Alg, rate, pol, alg)
				}
				if c.Result == nil || c.Result.Served+c.Result.Failed+c.Result.Rejected != 30 {
					t.Fatalf("cell %d did not account for all 30 requests: %+v", i, c.Result)
				}
				i++
			}
		}
	}
}

// TestCutsPartition checks the per-cut records against the run's
// totals under every policy with faults armed: each cut's outcomes
// partition its size, the cuts partition the served and failed
// requests, and their re-plans plus the incremental ones are the
// replan column WriteOnline prints.
func TestCutsPartition(t *testing.T) {
	arrivals, err := PoissonStream(120.0/3600, 60, 9, workload.NewUniform(segmentSpace, 10))
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Config{TransientRate: 0.2, OvershootRate: 0.1, LostRate: 0.05, MediaRate: 0.05, Seed: 11}
	failed, replans := 0, 0
	for _, policy := range AllPolicies() {
		r := run(t, Config{Policy: policy, Scheduler: core.NewSLTF(), Faults: faults}, arrivals)
		var sum Cut
		for i, c := range r.Cuts {
			if c.Served+c.Failed != c.Size {
				t.Fatalf("%s cut %d: %d served + %d failed != size %d", policy, i, c.Served, c.Failed, c.Size)
			}
			sum = sum.Add(c)
		}
		if sum.Size != r.Served+r.Failed || sum.Served != r.Served || sum.Failed != r.Failed {
			t.Fatalf("%s: cuts sum to %d (%d served, %d failed), run served %d and failed %d",
				policy, sum.Size, sum.Served, sum.Failed, r.Served, r.Failed)
		}
		var buf bytes.Buffer
		if err := WriteOnline(&buf, []SweepCell{{Policy: policy, Alg: r.Alg, Result: r}}); err != nil {
			t.Fatal(err)
		}
		row := strings.Fields(strings.Split(buf.String(), "\n")[2])
		printed, err := strconv.Atoi(row[10])
		if err != nil {
			t.Fatalf("%s: replan column %q: %v", policy, row[10], err)
		}
		if want := sum.Replans + r.IncrementalReplans; printed != want {
			t.Fatalf("%s: WriteOnline prints %d replans, cuts sum to %d", policy, printed, want)
		}
		failed += sum.Failed
		replans += sum.Replans
	}
	if failed == 0 || replans == 0 {
		t.Fatalf("fault mix too tame: %d failed, %d replans over every policy", failed, replans)
	}
}
