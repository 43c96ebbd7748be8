package core

import (
	"math"
	"slices"

	"serpentine/internal/geometry"
)

// Scheduling arenas: reusable working state so that repeated Schedule
// calls at the same batch size allocate (almost) nothing. Scheduler
// values are stateless and shared across goroutines — the simulator
// runs one instance from many workers — so the working state lives in
// sync.Pool-managed arenas rather than on the scheduler structs.
// Steady state per Schedule call is a single allocation: the returned
// Plan.Order.

// grown returns s resized to length n, reusing the backing array when
// capacity allows. Contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortInts sorts ascending in place without allocating.
func sortInts(s []int) { slices.Sort(s) }

// idxLess orders candidate indices by weight, breaking exact ties by
// index so candidate order — and therefore every downstream greedy
// decision — is fully deterministic and independent of the sorting
// algorithm.
func idxLess(a, b int32, key []float64) bool {
	ka, kb := key[a], key[b]
	return ka < kb || (ka == kb && a < b)
}

// sortIdxByKey sorts idx ascending by (key[idx[i]], idx[i]) without
// allocating: a median-of-three quicksort recursing on the smaller
// partition, with insertion sort below 16 elements.
func sortIdxByKey(idx []int32, key []float64) {
	for len(idx) > 16 {
		j, i := partitionIdx(idx, key)
		if j < len(idx)-i {
			sortIdxByKey(idx[:j+1], key)
			idx = idx[i:]
		} else {
			sortIdxByKey(idx[i:], key)
			idx = idx[:j+1]
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idxLess(idx[j], idx[j-1], key); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// selectIdxByKey rearranges idx so that idx[:m] holds its m smallest
// entries by (key[idx[i]], idx[i]), in no particular order, for
// 0 < m < len(idx): quickselect over the quicksort's partition.
func selectIdxByKey(idx []int32, key []float64, m int) {
	for len(idx) > 16 {
		j, i := partitionIdx(idx, key)
		switch {
		case m <= j+1:
			idx = idx[:j+1]
		case m >= i:
			idx, m = idx[i:], m-i
		default:
			return
		}
	}
	sortIdxByKey(idx, key)
}

// partitionIdx is a Hoare partition of idx (len > 2) around a
// median-of-three pivot in (key, index) order. It returns j < i such
// that idx[:j+1] orders before idx[i:], and anything between them is
// the pivot in its final place.
func partitionIdx(idx []int32, key []float64) (j, i int) {
	mid, hi := len(idx)/2, len(idx)-1
	if idxLess(idx[mid], idx[0], key) {
		idx[mid], idx[0] = idx[0], idx[mid]
	}
	if idxLess(idx[hi], idx[0], key) {
		idx[hi], idx[0] = idx[0], idx[hi]
	}
	if idxLess(idx[hi], idx[mid], key) {
		idx[hi], idx[mid] = idx[mid], idx[hi]
	}
	pivot := idx[mid]
	i, j = 0, hi
	for i <= j {
		for idxLess(idx[i], pivot, key) {
			i++
		}
		for idxLess(pivot, idx[j], key) {
			j--
		}
		if i <= j {
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
	}
	return j, i
}

// kvPair packs one sort record: a float64 key mapped onto a uint64
// whose unsigned order equals the key's numeric order, and the
// candidate index it belongs to.
type kvPair struct {
	k uint64
	i int32
}

// radixKey maps a float64 onto a uint64 with the same order as the
// comparison sort's: -0 is folded into +0 (they compare equal), then
// negative keys have every bit flipped and non-negative keys only the
// sign bit, the usual order-preserving map of IEEE-754 bit patterns.
// NaN keys have no order under either sort.
func radixKey(v float64) uint64 {
	k := math.Float64bits(v + 0) // -0 + 0 == +0
	return k ^ (uint64(int64(k)>>63) | 1<<63)
}

// radixSortIdx sorts idx like sortIdxByKey — ascending by
// (key[idx[x]], idx[x]) — via a stable byte-wise LSD radix sort over
// packed records. Stability plus an ascending initial order of idx
// yields exactly the index tie-break of the comparison sort, and the
// full 64-bit key keeps the order bit-exact. Requires idx in
// ascending order and scratch slices of len(idx). Passes whose byte
// is constant across all records (common: locate times share
// exponents) are skipped.
func radixSortIdx(idx []int32, key []float64, pairs, tmp []kvPair) {
	n := len(idx)
	var hist [8][256]int32
	for x, id := range idx {
		k := radixKey(key[id])
		pairs[x] = kvPair{k, id}
		hist[0][k&0xff]++
		hist[1][k>>8&0xff]++
		hist[2][k>>16&0xff]++
		hist[3][k>>24&0xff]++
		hist[4][k>>32&0xff]++
		hist[5][k>>40&0xff]++
		hist[6][k>>48&0xff]++
		hist[7][k>>56&0xff]++
	}
	a, b := pairs, tmp
	for pass := 0; pass < 8; pass++ {
		h := &hist[pass]
		shift := pass * 8
		// A pass whose byte is identical across all keys moves
		// nothing; locate times share exponents, so the high bytes
		// rarely vary and those passes are skipped.
		if h[a[0].k>>shift&0xff] == int32(n) {
			continue
		}
		sum := int32(0)
		for d := range h {
			c := h[d]
			h[d] = sum
			sum += c
		}
		for _, p := range a {
			d := p.k >> shift & 0xff
			b[h[d]] = p
			h[d]++
		}
		a, b = b, a
	}
	for x, p := range a {
		idx[x] = p.i
	}
}

// cellIndex is the dense cell -> bucket lookup SCAN and WEAVE share:
// a slice over all (track, physical section) cells holding the bucket
// index at that cell, -1 when empty. Entries are restored to -1 after
// every use, so a pooled arena's table is always clean on entry.
type cellIndex []int32

// sized returns the table with at least n valid (-1 or in-use)
// entries.
func (c cellIndex) sized(n int) cellIndex {
	if cap(c) < n {
		c = make(cellIndex, n)
		for i := range c {
			c[i] = -1
		}
		return c
	}
	// Anything within the original allocation was initialized to -1
	// and is restored after each use, so regrowing within capacity is
	// already clean.
	return c[:n]
}

// buckets is the shared request-bucketing state: requests sorted
// ascending and grouped into runs per (track, physical section) cell.
// Because segment numbers are contiguous per logical section and
// logical sections map 1:1 to physical sections within a track, each
// cell's requests form one contiguous run of the sorted slice.
type buckets struct {
	segs     []int // sorted requests (backing for all runs)
	cell     cellIndex
	bCell    []int32 // bucket -> cell
	bStart   []int32 // bucket -> start offset in segs; end is next start
	consumed []bool
}

// build sorts the requests into the arena and indexes the runs. Each
// request's cell is derived from the view's dense section index;
// within a track, physical section = logical section for forward
// tracks and the mirror image for reverse tracks.
func (b *buckets) build(view *geometry.View, reqs []int) {
	params := view.Params()
	spt := params.SectionsPerTrack
	b.segs = append(b.segs[:0], reqs...)
	sortInts(b.segs)
	b.cell = b.cell.sized(params.Tracks * spt)
	b.bCell = b.bCell[:0]
	b.bStart = b.bStart[:0]
	prev := int32(-1)
	for i, seg := range b.segs {
		idx := view.SectionIndex(seg)
		t, l := idx/spt, idx%spt
		ps := l
		if params.TrackDirection(t) == geometry.Reverse {
			ps = spt - 1 - l
		}
		cell := int32(t*spt + ps)
		if cell != prev {
			b.cell[cell] = int32(len(b.bCell))
			b.bCell = append(b.bCell, cell)
			b.bStart = append(b.bStart, int32(i))
			prev = cell
		}
	}
	b.consumed = grown(b.consumed, len(b.bCell))
	for i := range b.consumed {
		b.consumed[i] = false
	}
}

// run returns bucket bi's requests, ascending.
func (b *buckets) run(bi int32) []int {
	end := len(b.segs)
	if int(bi)+1 < len(b.bStart) {
		end = int(b.bStart[bi+1])
	}
	return b.segs[b.bStart[bi]:end]
}

// at returns the unconsumed bucket at cell, or -1.
func (b *buckets) at(cell int) int32 {
	bi := b.cell[cell]
	if bi >= 0 && b.consumed[bi] {
		return -1
	}
	return bi
}

// release restores the cell table to all -1 for the next user.
func (b *buckets) release() {
	for _, cell := range b.bCell {
		b.cell[cell] = -1
	}
}
