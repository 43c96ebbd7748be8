package sim

import (
	"sort"
	"sync"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/rand48"
)

// The fuzz substrate: one small cartridge and its host model, built
// once per process. Each fuzz iteration gets its own drive, so the
// shared tape is only ever read.
var fuzzTape = struct {
	once  sync.Once
	tape  *geometry.Tape
	model *locate.Model
}{}

func fuzzFixture(t testing.TB) (*geometry.Tape, *locate.Model) {
	t.Helper()
	fuzzTape.once.Do(func() {
		fuzzTape.tape = geometry.MustGenerate(geometry.Tiny(), 3)
		m, err := locate.FromKeyPoints(fuzzTape.tape.KeyPoints())
		if err != nil {
			panic(err)
		}
		fuzzTape.model = m
	})
	return fuzzTape.tape, fuzzTape.model
}

// FuzzExecutorReplan drives the executor through random fault
// schedules and asserts its conservation invariant: whatever faults
// fire and however often the remaining work is replanned, every
// request ends up in exactly one of Served or Failed — none lost,
// none duplicated — and the accounting stays finite.
//
// Run with `go test -fuzz FuzzExecutorReplan ./internal/sim`; the
// seeded corpus in testdata/fuzz covers each failure class alone,
// saturated mixes, the planning-budget fallback path and the
// fault-free baseline.
func FuzzExecutorReplan(f *testing.F) {
	// seed, nRequests, transient, overshoot, lost, media, start, tinyBudget
	f.Add(int64(1), byte(8), byte(0), byte(0), byte(0), byte(0), uint16(0), false)           // fault-free
	f.Add(int64(2), byte(12), byte(128), byte(0), byte(0), byte(0), uint16(100), false)      // transient storm
	f.Add(int64(3), byte(12), byte(0), byte(128), byte(0), byte(0), uint16(200), false)      // overshoot storm
	f.Add(int64(4), byte(12), byte(0), byte(0), byte(128), byte(0), uint16(300), false)      // lost-position storm
	f.Add(int64(5), byte(12), byte(0), byte(0), byte(0), byte(128), uint16(400), false)      // media storm
	f.Add(int64(6), byte(24), byte(64), byte(32), byte(32), byte(16), uint16(500), true)     // mixed + tiny budget
	f.Add(int64(7), byte(31), byte(255), byte(255), byte(255), byte(255), uint16(999), true) // saturated

	f.Fuzz(func(t *testing.T, seed int64, n, tr, ov, lost, media byte, start uint16, tinyBudget bool) {
		tape, model := fuzzFixture(t)
		total := model.Segments()

		nReq := 1 + int(n)%32
		rng := rand48.New(seed)
		seen := make(map[int]bool, nReq)
		reqs := make([]int, 0, nReq)
		for len(reqs) < nReq {
			s := rng.Intn(total)
			if !seen[s] {
				seen[s] = true
				reqs = append(reqs, s)
			}
		}

		cfg := fault.Config{
			TransientRate: float64(tr) / 255 * 0.6,
			OvershootRate: float64(ov) / 255 * 0.5,
			LostRate:      float64(lost) / 255 * 0.5,
			MediaRate:     float64(media) / 255 * 0.2,
			Seed:          seed,
		}
		d := drive.New(tape)
		if cfg.Enabled() {
			d.AttachFaults(fault.New(cfg))
		}

		p := &core.Problem{Start: int(start) % total, Requests: reqs, Cost: model}
		plan, err := core.NewLOSS().Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		pol := RetryPolicy{MaxRetries: 2, MaxReplans: 4}
		if tinyBudget {
			pol.PlanningBudgetOps = 1 // every tier over budget: exercises the full fallback chain
		}
		res, err := (&Executor{Drive: d, Scheduler: core.NewLOSS(), Policy: pol}).Execute(p, plan)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}

		got := append(append([]int(nil), res.Served...), res.Failed...)
		want := append([]int(nil), reqs...)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("conservation violated: %d in, %d out (served %d, failed %d, retries %d, replans %d)",
				len(want), len(got), len(res.Served), len(res.Failed), res.Retries, res.Replans)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("request set changed at rank %d: got %d want %d", i, got[i], want[i])
			}
		}
		// Recovery is a subset of elapsed time, up to float summation
		// order (the two are accumulated separately).
		slack := 1e-9 * (1 + res.ElapsedSec)
		if !(res.ElapsedSec >= 0) || !(res.RecoverySec >= 0) || res.RecoverySec > res.ElapsedSec+slack {
			t.Fatalf("accounting broken: elapsed %v recovery %v", res.ElapsedSec, res.RecoverySec)
		}
		if d.Lost() {
			t.Fatal("executor returned with the drive still lost")
		}
		if len(res.Completions) != len(res.Served) {
			t.Fatalf("%d completion samples for %d served requests", len(res.Completions), len(res.Served))
		}
	})
}
