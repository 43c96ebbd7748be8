package core

import (
	"fmt"
	"sync"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/locate"
)

// Steady-state scheduler benchmarks: ns/op and allocs/op per algorithm
// and batch size. These are the PR-1 acceptance benchmarks — run them
// with `make bench` (which emits BENCH_PR1.json) and compare against
// the committed baseline in EXPERIMENTS.md.
var schedBench struct {
	once  sync.Once
	model *locate.Model
}

func schedBenchModel(b *testing.B) *locate.Model {
	b.Helper()
	schedBench.once.Do(func() {
		tape := geometry.MustGenerate(geometry.DLT4000(), 1)
		m, err := locate.FromKeyPoints(tape.KeyPoints())
		if err != nil {
			panic(err)
		}
		schedBench.model = m
	})
	return schedBench.model
}

// BenchmarkScheduler measures one Schedule call per iteration for the
// four arena-backed algorithms at the two acceptance batch sizes, plus
// LOSS at 1536, the longest batch of the paper's Fig. 4/6 sweep, LOSS
// at 16 and 40, the small batches the library and the paper-batch
// loop hand it, and OPT over the small batches Auto hands it (n <= 10).
// Steady state should be ≤2 allocs/op (the returned Plan.Order plus at
// most one arena growth on the very first iterations).
func BenchmarkScheduler(b *testing.B) {
	m := schedBenchModel(b)
	algs := []Scheduler{NewLOSS(), NewSLTF(), Scan{}, Weave{}, NewOPT(10)}
	for _, alg := range algs {
		sizes := []int{128, 1024}
		switch alg.Name() {
		case "LOSS":
			sizes = []int{16, 40, 128, 1024, 1536}
		case "OPT":
			sizes = []int{3, 6, 8, 10}
		}
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				p := randomProblem(b, m, n, 42)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := alg.Schedule(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSchedulerVariants covers the coalesced and sparse variants
// the Auto policy dispatches to at large batch sizes.
func BenchmarkSchedulerVariants(b *testing.B) {
	m := schedBenchModel(b)
	algs := []Scheduler{
		NewLOSSCoalesced(DefaultCoalesceThreshold),
		NewSLTFCoalesced(DefaultCoalesceThreshold),
		NewSparseLOSS(),
	}
	for _, alg := range algs {
		b.Run(fmt.Sprintf("%s/n=1024", alg.Name()), func(b *testing.B) {
			p := randomProblem(b, m, 1024, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Schedule(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOPTBatches cycles OPT through 512 different random batches
// per size. BenchmarkScheduler solves one fixed instance, whose
// pruning pattern the branch predictor learns; a stream of batches,
// as Auto sees in a simulation, does not repeat.
func BenchmarkOPTBatches(b *testing.B) {
	m := schedBenchModel(b)
	for _, n := range []int{3, 5, 8, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ps := make([]*Problem, 512)
			for s := range ps {
				ps[s] = randomProblem(b, m, n, int64(s)*7+3)
			}
			opt := NewOPT(10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Schedule(ps[i%len(ps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
