package workload

import (
	"testing"
	"testing/quick"
)

func checkBatch(t *testing.T, g Generator, n int) []int {
	t.Helper()
	b := g.Batch(n)
	if len(b) != n {
		t.Fatalf("%s: batch of %d has %d entries", g.Name(), n, len(b))
	}
	seen := make(map[int]bool, n)
	for _, v := range b {
		if v < 0 || v >= g.Segments() {
			t.Fatalf("%s: segment %d out of [0,%d)", g.Name(), v, g.Segments())
		}
		if seen[v] {
			t.Fatalf("%s: duplicate segment %d in batch", g.Name(), v)
		}
		seen[v] = true
	}
	return b
}

func TestUniformBatchProperties(t *testing.T) {
	g := NewUniform(622058, 1)
	for _, n := range []int{1, 2, 10, 2048} {
		checkBatch(t, g, n)
	}
}

func TestUniformDeterministicBySeed(t *testing.T) {
	a := NewUniform(1000, 7).Batch(100)
	b := NewUniform(1000, 7).Batch(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different batches")
		}
	}
	c := NewUniform(1000, 8).Batch(100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 20 {
		t.Fatal("different seeds produced nearly identical batches")
	}
}

func TestUniformCoversSpace(t *testing.T) {
	g := NewUniform(100, 3)
	b := checkBatch(t, g, 100)
	_ = b // 100 distinct values in [0,100) is the full space
}

func TestUniformNext(t *testing.T) {
	g := NewUniform(500, 2)
	for i := 0; i < 100; i++ {
		if v := g.Next(); v < 0 || v >= 500 {
			t.Fatalf("Next() = %d", v)
		}
	}
}

func TestBatchPanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniform(10, 1).Batch(11)
}

func TestZipfSkewsPopularity(t *testing.T) {
	const total = 1 << 20
	const extent = 4096
	g := NewZipf(total, 5, 1.0, extent)
	counts := make(map[int]int)
	for i := 0; i < 200; i++ {
		for _, v := range g.Batch(64) {
			counts[v/extent]++
		}
	}
	// The hottest extent should hold far more than a uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformShare := 200 * 64 / (total / extent)
	if max < 10*uniformShare {
		t.Fatalf("hottest extent drew %d, uniform share %d: not skewed", max, uniformShare)
	}
	checkBatch(t, g, 256)
}

func TestZipfExtentDefaultsAndClamps(t *testing.T) {
	g := NewZipf(1000, 1, 0.9, 0) // extent defaults, then clamps to total
	checkBatch(t, g, 50)
	g2 := NewZipf(100000, 2, 0.5, 1<<20)
	checkBatch(t, g2, 50)
}

func TestClusteredBatchesAreClumped(t *testing.T) {
	const total = 1 << 20
	g := NewClustered(total, 9, 8, 2048)
	b := checkBatch(t, g, 64)
	// Count pairs closer than the spread: a uniform batch of 64 over
	// a million segments would have nearly none.
	close := 0
	for i := range b {
		for j := i + 1; j < len(b); j++ {
			d := b[i] - b[j]
			if d < 0 {
				d = -d
			}
			if d < 2048 {
				close++
			}
		}
	}
	if close < 50 {
		t.Fatalf("only %d close pairs in a clustered batch", close)
	}
}

func TestClusteredStaysInRange(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		g := NewClustered(5000, seed, 4, 3000)
		n := int(rawN)%100 + 1
		for _, v := range g.Batch(n) {
			if v < 0 || v >= 5000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorNames(t *testing.T) {
	if NewUniform(10, 1).Name() != "uniform" ||
		NewZipf(10, 1, 1, 2).Name() != "zipf" ||
		NewClustered(10, 1, 2, 2).Name() != "clustered" {
		t.Fatal("names wrong")
	}
}
