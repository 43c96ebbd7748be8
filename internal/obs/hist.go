package obs

import (
	"sync"

	"serpentine/internal/stats"
)

// histBounds are the histogram bucket upper bounds in seconds. Tape
// latencies span three orders of magnitude — a same-track locate is a
// few seconds, a sojourn behind a long batch can be hours — so the
// buckets are powers of two from a quarter second to ~18 hours.
var histBounds = func() []float64 {
	var b []float64
	for v := 0.25; v <= 1<<16; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// maxExactSamples bounds the per-histogram sample retention backing
// exact quantiles. Past the cap the histogram keeps counting into its
// buckets and moments but stops retaining samples, and quantiles fall
// back to bucket interpolation.
const maxExactSamples = 1 << 20

// Histogram is a latency histogram: exponential buckets for the text
// dump plus retained samples for exact p50/p95/p99 and streaming
// moments via stats.Accumulator. It is safe for concurrent use. A nil
// *Histogram drops every observation.
type Histogram struct {
	mu      sync.Mutex
	buckets []int64 // counts per histBounds entry; overflow in acc
	acc     stats.Accumulator
	sum     float64
	samples []float64
}

func newHistogram() *Histogram {
	return &Histogram{buckets: make([]int64, len(histBounds)+1)}
}

// Observe records one value in seconds. Non-finite values are dropped
// (and counted) by the embedded accumulator, exactly as stats does.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	before := h.acc.N()
	h.acc.Add(v)
	if h.acc.N() == before { // dropped as non-finite
		return
	}
	h.sum += v
	h.buckets[bucketOf(v)]++
	if len(h.samples) < maxExactSamples {
		h.samples = append(h.samples, v)
	}
}

// bucketOf returns the index of the first bound >= v, or the overflow
// bucket.
func bucketOf(v float64) int {
	for i, b := range histBounds {
		if v <= b {
			return i
		}
	}
	return len(histBounds)
}

// Count returns the number of observed (finite) values.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acc.N()
}

// Dropped returns the number of non-finite observations rejected.
func (h *Histogram) Dropped() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acc.Dropped()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observed value, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acc.Mean()
}

// Quantile returns the p-th percentile (0-100) of the observations:
// exact (interpolated between closest ranks) while the sample
// retention holds, bucket-interpolated past it, and 0 when the
// histogram is empty — an idle window dumps as zeros, never NaN.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.acc.N() == 0 {
		return 0
	}
	if len(h.samples) == h.acc.N() {
		return stats.PercentileOrZero(h.samples, p)
	}
	// Saturated: interpolate within the bucket containing the rank.
	rank := p / 100 * float64(h.acc.N()-1)
	seen := int64(0)
	lo := 0.0
	for i, c := range h.buckets {
		hi := h.acc.Max()
		if i < len(histBounds) {
			hi = histBounds[i]
		}
		if float64(seen+c) > rank && c > 0 {
			frac := (rank - float64(seen)) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += c
		lo = hi
	}
	return h.acc.Max()
}

// merge folds b's observations into h.
func (h *Histogram) merge(b *Histogram) {
	if b == nil || b == h {
		return
	}
	b.mu.Lock()
	buckets := make([]int64, len(b.buckets))
	copy(buckets, b.buckets)
	acc := b.acc
	sum := b.sum
	samples := make([]float64, len(b.samples))
	copy(samples, b.samples)
	b.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range buckets {
		h.buckets[i] += c
	}
	h.acc.Merge(&acc)
	h.sum += sum
	room := maxExactSamples - len(h.samples)
	if room > len(samples) {
		room = len(samples)
	}
	if room > 0 {
		h.samples = append(h.samples, samples[:room]...)
	}
}
