package server

import (
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/workload"
)

// BenchmarkServerSteadyState runs the single-drive online server end
// to end over a representative Poisson stream — the arrival loop,
// admission queue, batch cutting, scheduling and execution — and
// reports the simulated-request throughput. Tracked in
// BENCH_PR6.json alongside the library-sweep cell.
func BenchmarkServerSteadyState(b *testing.B) {
	const n = 300
	gen := workload.NewUniform(segmentSpace, 12346)
	arrivals, err := PoissonStream(120.0/3600, n, 12345, gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{}, arrivals)
		if err != nil {
			b.Fatal(err)
		}
		if res.Served != n {
			b.Fatalf("served %d of %d", res.Served, n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkChaosCell runs one default chaos cell — LOSS at the
// default fault mix x1, twelve chained batches of 96 — and reports
// the simulated-request throughput.
func BenchmarkChaosCell(b *testing.B) {
	cfg := ChaosConfig{Schedulers: []core.Scheduler{core.NewLOSS()}, Rates: []float64{1}, Seed: 1, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := ChaosSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if w := cells[0].Window; w.Served+w.Failed != 10*96 {
			b.Fatalf("measured %d+%d of %d", w.Served, w.Failed, 10*96)
		}
	}
	b.ReportMetric(float64(12*96)*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
}
