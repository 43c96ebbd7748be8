package core

import (
	"math"
	"slices"
	"testing"

	"serpentine/internal/rand48"
)

// sortKeys has exact ties, both zeros, negatives and a spread of
// magnitudes: every ordering hazard of the radix key map.
func sortKeys(n int, seed int64) []float64 {
	rng := rand48.New(seed)
	negZero := math.Copysign(0, -1)
	key := make([]float64, n)
	for i := range key {
		switch rng.Intn(6) {
		case 0:
			key[i] = 0
		case 1:
			key[i] = negZero
		case 2:
			key[i] = float64(rng.Intn(4))
		case 3:
			key[i] = -float64(rng.Intn(4)) - 0.5
		case 4:
			key[i] = math.Ldexp(float64(rng.Intn(1000)), rng.Intn(40)-20)
		default:
			key[i] = -math.Ldexp(float64(rng.Intn(1000)), rng.Intn(40)-20)
		}
	}
	return key
}

func ascendingIdx(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// The radix sort must reproduce the comparison sort exactly, -0 and
// +0 comparing equal, so the two halves of sortIdx are
// interchangeable.
func TestRadixSortMatchesComparisonOrder(t *testing.T) {
	for _, n := range []int{1, 2, 100, 257, 1000} {
		key := sortKeys(n, int64(n))
		want := ascendingIdx(n)
		sortIdxByKey(want, key)
		got := ascendingIdx(n)
		radixSortIdx(got, key, make([]kvPair, n), make([]kvPair, n))
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix order %v\ncomparison order %v", n, got, want)
		}
	}
	// A single -0 among positives sorts with +0, ahead of them.
	key := []float64{3, 1, math.Copysign(0, -1), 2, 0}
	got := ascendingIdx(len(key))
	radixSortIdx(got, key, make([]kvPair, len(key)), make([]kvPair, len(key)))
	if want := []int32{2, 4, 1, 3, 0}; !slices.Equal(got, want) {
		t.Fatalf("-0 order: got %v, want %v", got, want)
	}
}

// selectIdxByKey must gather exactly the m smallest entries of the
// (key, index) order, for every m.
func TestSelectIdxByKey(t *testing.T) {
	for _, n := range []int{2, 17, 40, 300} {
		key := sortKeys(n, int64(n)+7)
		want := ascendingIdx(n)
		sortIdxByKey(want, key)
		for m := 1; m < n; m++ {
			got := ascendingIdx(n)
			selectIdxByKey(got, key, m)
			sortIdxByKey(got[:m], key)
			if !slices.Equal(got[:m], want[:m]) {
				t.Fatalf("n=%d m=%d: selected %v, want %v", n, m, got[:m], want[:m])
			}
		}
	}
}
