package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("served_total", L("alg", "LOSS"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter("served_total", L("alg", "LOSS")) != c {
		t.Fatal("same name+labels did not return the same counter")
	}
	if r.Counter("served_total", L("alg", "SLTF")) == c {
		t.Fatal("different labels returned the same counter")
	}

	g := r.Gauge("queue_depth")
	g.Set(4)
	g.Add(-1)
	g.Max(2) // below current: no-op
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge high-water = %g, want 9", got)
	}
}

// TestCounterGaugeConcurrent hammers one counter and one gauge from
// several goroutines: no update is lost (every increment and every
// exactly representable gauge step lands), negative counter adds stay
// ignored, and Max keeps the true high-water mark. Run under -race it
// also checks the lock-free updates are data-race free.
// TestNilRegistryNoOps pins the off switch: a nil registry hands out
// nil handles, and every handle write on them is a no-op.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("served_total", L("alg", "LOSS"))
	g := r.Gauge("queue_depth")
	h := r.Histogram("latency_seconds", L("tape", "1"))
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out live handles: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	g.Max(5)
	h.Observe(0.5)
	h.Observe(math.NaN())
}

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g, hw Gauge
	hw.Set(math.Inf(-1))
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				c.Add(-3)
				g.Add(0.5)
				hw.Max(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per*0.5 {
		t.Fatalf("gauge = %g, want %g", got, float64(workers*per)*0.5)
	}
	if got := hw.Value(); got != workers*per-1 {
		t.Fatalf("high-water = %g, want %d", got, workers*per-1)
	}
	hw.Max(math.NaN()) // never raises: NaN compares below everything
	if got := hw.Value(); got != workers*per-1 {
		t.Fatalf("Max(NaN) moved the high-water to %g", got)
	}
}

func TestMetricKeyLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("b", "2"), L("a", "1"))
	b := r.Counter("x", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order changed the series identity")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sojourn_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	h.Observe(math.NaN()) // dropped, not absorbed
	if h.Count() != 100 || h.Dropped() != 1 {
		t.Fatalf("count=%d dropped=%d, want 100/1", h.Count(), h.Dropped())
	}
	if got := h.Quantile(50); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("p50 = %g, want 50.5", got)
	}
	if got := h.Quantile(99); math.Abs(got-99.01) > 1e-9 {
		t.Fatalf("p99 = %g, want 99.01", got)
	}
	if saturated(h) {
		t.Fatal("tiny histogram claims saturation")
	}
	// Idle histogram: NaN-free zeros.
	idle := r.Histogram("idle_seconds")
	if q := idle.Quantile(99); q != 0 || math.IsNaN(q) {
		t.Fatalf("empty histogram p99 = %g, want 0", q)
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n").Add(2)
	b.Counter("n").Add(3)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(1)
	b.Gauge("g").Set(2)
	a.Histogram("h").Observe(1)
	b.Histogram("h").Observe(3)

	a.Merge(b)
	if got := a.Counter("n").Value(); got != 5 {
		t.Fatalf("merged counter = %d, want 5", got)
	}
	if got := a.Counter("only_b").Value(); got != 1 {
		t.Fatalf("merged new counter = %d, want 1", got)
	}
	if got := a.Gauge("g").Value(); got != 3 {
		t.Fatalf("merged gauge = %g, want 3", got)
	}
	h := a.Histogram("h")
	if h.Count() != 2 || h.Sum() != 4 {
		t.Fatalf("merged histogram count=%d sum=%g, want 2/4", h.Count(), h.Sum())
	}
	a.Merge(a) // self-merge must be a no-op
	if got := a.Counter("n").Value(); got != 5 {
		t.Fatalf("self-merge changed counter to %d", got)
	}

	// Labeled histograms recorded into two registries and merged into a
	// fresh one dump exactly like the same observations recorded into
	// one registry: the merge carries each series' name and labels.
	observe := func(r *Registry, part int) {
		for i := 0; i < 40; i++ {
			if i%2 != part {
				continue
			}
			v := float64(i*i) / 7
			r.Histogram("sojourn_seconds", L("tape", strconv.Itoa(i%3)), L("alg", "LOSS")).Observe(v)
			r.Histogram("sojourn_seconds", L("alg", `say "hi"\`), L("shard", "1")).Observe(v / 3)
			r.Histogram("batch_size").Observe(float64(i % 5))
		}
	}
	one, p0, p1 := NewRegistry(), NewRegistry(), NewRegistry()
	observe(one, 0)
	observe(one, 1)
	observe(p0, 0)
	observe(p1, 1)
	merged := NewRegistry()
	merged.Merge(p0)
	merged.Merge(p1)
	var want, got strings.Builder
	if err := one.WriteProm(&want); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteProm(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("merged labeled histograms dump differently:\n%s\nwant\n%s", got.String(), want.String())
	}
}

func TestWritePromDeterministicAndWellFormed(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("served_total", L("policy", "fixed-window"), L("alg", "LOSS")).Add(7)
		r.Gauge("clock_seconds").Set(123.5)
		h := r.Histogram("sojourn_seconds", L("alg", "LOSS"))
		h.Observe(0.1)
		h.Observe(3)
		h.Observe(40000)
		return r
	}
	var s1, s2 strings.Builder
	if err := build().WriteProm(&s1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteProm(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("WriteProm is not deterministic")
	}
	out := s1.String()
	for _, want := range []string{
		"# TYPE served_total counter",
		`served_total{alg="LOSS",policy="fixed-window"} 7`,
		"# TYPE clock_seconds gauge",
		"clock_seconds 123.5",
		"# TYPE sojourn_seconds histogram",
		`sojourn_seconds_bucket{alg="LOSS",le="0.25"} 1`,
		`sojourn_seconds_bucket{alg="LOSS",le="+Inf"} 3`,
		`sojourn_seconds_count{alg="LOSS"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing and end at count.
	if strings.Index(out, `le="0.25"`) > strings.Index(out, `le="+Inf"`) {
		t.Fatal("bucket order is not ascending")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(2)
	r.Histogram("svc_seconds").Observe(1.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"served_total": 2`, `"count":1`, `"p99":1.5`} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteJSON missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total", L("path", `C:\tapes\"vault"`+"\nline2")).Inc()
	r.Histogram("lat_seconds", L("note", "a\\b")).Observe(1)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The exposition format escapes exactly backslash, quote and
	// newline inside label values; the raw forms must not survive.
	want := `events_total{path="C:\\tapes\\\"vault\"\nline2"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("WriteProm missing escaped series %q:\n%s", want, out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{note="a\\b",le="1"} 1`) {
		t.Fatalf("histogram label block not escaped:\n%s", out)
	}
	// A raw newline in a label value would split the series across two
	// physical lines; every line must stay a comment or a full sample.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.ContainsRune(line, ' ') {
			t.Fatalf("raw newline leaked into exposition output: %q", line)
		}
	}
	// Escaping is injective: these two values must stay distinct series.
	r2 := NewRegistry()
	r2.Counter("x", L("v", `a\nb`)).Inc()
	r2.Counter("x", L("v", "a\nb")).Inc()
	var sb2 strings.Builder
	if err := r2.WriteProm(&sb2); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb2.String(), "x{"); got != 2 {
		t.Fatalf("escaping collided two distinct label values into %d series:\n%s", got, sb2.String())
	}
}

func TestMergeConcurrent(t *testing.T) {
	const workers, perWorker = 8, 50
	dst := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := NewRegistry()
				src.Counter("served_total").Add(1)
				src.Gauge("clock_seconds").Set(1)
				src.Histogram("sojourn_seconds").Observe(float64(w*perWorker + i))
				dst.Merge(src)
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := dst.Counter("served_total").Value(); got != total {
		t.Fatalf("concurrent merge counter = %d, want %d", got, total)
	}
	if got := dst.Gauge("clock_seconds").Value(); got != total {
		t.Fatalf("concurrent merge gauge = %g, want %d", got, total)
	}
	if got := dst.Histogram("sojourn_seconds").Count(); got != total {
		t.Fatalf("concurrent merge histogram count = %d, want %d", got, total)
	}
}

func TestHistogramExactToBucketedBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the 1<<20 exact-sample retention")
	}
	h := newHistogram()
	// Uniform values over [0, 16): the true median sits at ~8, inside
	// the (4, 8] / (8, 16] bucket pair, giving the bucketed estimate a
	// tight target.
	for i := 0; i < maxExactSamples; i++ {
		h.Observe(float64(i) / float64(maxExactSamples) * 16)
	}
	if saturated(h) {
		t.Fatal("histogram saturated at exactly maxExactSamples")
	}
	exactP50 := h.Quantile(50)
	if math.Abs(exactP50-8) > 1e-3 {
		t.Fatalf("exact p50 = %g, want ~8", exactP50)
	}

	// One more observation crosses the boundary: retention stops,
	// quantiles switch to bucket interpolation.
	h.Observe(12)
	if !saturated(h) {
		t.Fatal("histogram not saturated one past maxExactSamples")
	}
	if h.Count() != maxExactSamples+1 {
		t.Fatalf("count = %d, want %d", h.Count(), maxExactSamples+1)
	}
	p50, p95, p99 := h.Quantile(50), h.Quantile(95), h.Quantile(99)
	if p50 < 4 || p50 > 16 {
		t.Fatalf("bucketed p50 = %g, outside the plausible [4,16] range", p50)
	}
	if p50 > p95 || p95 > p99 {
		t.Fatalf("bucketed quantiles not monotone: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	if max := h.Quantile(100); p99 > max || max > 16 {
		t.Fatalf("p99=%g max=%g, want p99 <= max <= 16", p99, max)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("ops_total").Inc()
				r.Histogram("lat").Observe(float64(i))
				r.Gauge("depth").Max(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat").Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

// saturated reports whether h's quantiles are bucket-estimated because
// its exact-sample retention overflowed.
func saturated(h *Histogram) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples) != h.acc.N()
}
