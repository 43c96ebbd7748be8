package hsm

import (
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/tertiary"
)

// BenchmarkTierSweepCell measures one staging-tier sweep cell on the
// library sweeps' store (4 cartridges of 512 objects, 2 drives, batch
// limit 16): a size-0 tier, the bit-identical pass-through, against a
// 32 MB LRU cache with prefetch, where the harvest, installs and
// evictions run on every request.
func BenchmarkTierSweepCell(b *testing.B) {
	st, err := tertiary.BuildStore(geometry.DLT4000(), 1, 4, 512, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	base := st.Shards[0]
	stream, err := tertiary.SweepStream(90, 4000, 1000010, 4, 512)
	if err != nil {
		b.Fatal(err)
	}
	lib := base.Clone(tertiary.Config{
		Profile: geometry.DLT4000(), Tapes: base.Tapes(), Drives: 2, BatchLimit: 16,
	})
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"size=0", Config{}},
		{"size=32MB", Config{CapacityBytes: 32 << 20, Prefetch: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tier, err := NewTier(lib, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := tier.Run(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
		})
	}
}
