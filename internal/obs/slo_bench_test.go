package obs

import (
	"math"
	"sort"
	"testing"

	"serpentine/internal/rand48"
)

// sloBenchEvents is a fixed event log shaped like one fleet rung's:
// Poisson arrivals at 300 per virtual hour, exponential sojourns with
// a 20-minute mean (so some overrun the 30-minute latency objective),
// about 1% failed or shed, a tenth best-effort, sorted by terminal
// time as the export paths leave it.
func sloBenchEvents(n int) []Event {
	rng := rand48.New(29)
	evs := make([]Event, n)
	at := 0.0
	for i := range evs {
		at += -math.Log(1-rng.Drand48()) * 12
		ev := Event{
			Seq: int64(i + 1), Class: "standard", Outcome: OutcomeServed,
			ArrivalSec: at, DoneSec: at - math.Log(1-rng.Drand48())*1200,
		}
		if rng.Intn(10) == 0 {
			ev.Class = "best-effort"
		}
		switch rng.Intn(200) {
		case 0:
			ev.Outcome = OutcomeFailed
		case 1:
			ev.Outcome = OutcomeShed
		}
		evs[i] = ev
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].DoneSec < evs[j].DoneSec })
	return evs
}

// BenchmarkSLOIngest replays a fixed 20000-event log into a fresh SLO
// engine per op, with the fleet workload's two objectives and the
// default windows and burn rules: the SLO plane's per-event cost.
func BenchmarkSLOIngest(b *testing.B) {
	evs := sloBenchEvents(20000)
	cfg := SLOConfig{Objectives: []Objective{
		{Name: "availability", Target: 0.995},
		{Name: "latency", Target: 0.95, LatencySec: 1800},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewSLOEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for j := range evs {
			e.ObserveEvent(evs[j])
		}
	}
	b.ReportMetric(float64(len(evs))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
