// Package obs is the observability subsystem of the online serving
// layer: counters, gauges and latency histograms keyed by metric name
// plus labels, a hierarchical virtual-time span tracer (span.go) with
// Chrome-trace and text timeline exports (export.go), live
// introspection endpoints (http.go), and deterministic text dumps in
// Prometheus exposition format and expvar-style JSON.
//
// Everything here is driven by the simulator's *virtual* clock — the
// package never reads wall time, so a metrics dump is a pure function
// of the experiment that produced it and can be committed as evidence
// the way the results/ tables are. Dumps render metrics in sorted
// order for the same reason.
//
// A Registry is safe for concurrent use; the parallel sweeps give
// every cell its own registry and Merge them afterwards in spec order,
// which keeps the merged dump independent of the worker count.
package obs

import (
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKey renders name plus sorted labels into the canonical series
// identity, e.g. `served_total{alg="LOSS",policy="fixed-window"}`,
// and returns the sorted labels with it.
func metricKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return name + labelBlock(ls), ls
}

// labelBlock renders labels in the order given as `{k="v",...}` ("" for
// none). Label values are escaped per the Prometheus text exposition
// format, so a series identity doubles as the spec-valid rendering
// WriteProm emits.
func labelBlock(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promEscape escapes a label value per the Prometheus text exposition
// format: exactly backslash, double quote and newline are escaped
// (`\\`, `\"`, `\n`); every other byte — tabs, other control bytes,
// multi-byte UTF-8 — passes through raw, as the spec requires. The
// escaping is injective, so distinct values never collide into one
// series identity.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Counter is a monotonically increasing count. Inc and Add are single
// atomic operations: the hot paths bump counters on every request, and
// a lock per bump was a measurable share of a library run. A nil
// *Counter, which a nil Registry hands out, takes every write and
// keeps nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n; negative n is ignored (counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value (queue depth, clock seconds), held
// as the bits of a float64 so every update is lock-free: Set is one
// store, Add and Max compare-and-swap until their update lands. A nil
// *Gauge takes every write and keeps nothing.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for g != nil {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Max raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) Max(v float64) {
	for g != nil {
		old := g.bits.Load()
		if !(v > math.Float64frombits(old)) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds a process's metrics by canonical series identity.
// The zero value is not usable; call NewRegistry. A nil *Registry is
// the off switch: Counter, Gauge and Histogram return nil handles
// whose writes do nothing, so a run without a registry records
// nothing and pays no key rendering.
type Registry struct {
	mu     sync.Mutex
	counts map[string]series[Counter]
	gauges map[string]series[Gauge]
	hists  map[string]series[Histogram]
}

// series is one metric with the name and sorted labels of the call
// that created it; WriteProm and WriteShardsJSON render from these.
type series[M any] struct {
	name   string
	labels []Label
	m      *M
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]series[Counter]),
		gauges: make(map[string]series[Gauge]),
		hists:  make(map[string]series[Histogram]),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key, ls := metricKey(name, labels)
	return lookup(r, r.counts, key, name, ls, newCounter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key, ls := metricKey(name, labels)
	return lookup(r, r.gauges, key, name, ls, newGauge)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key, ls := metricKey(name, labels)
	return lookup(r, r.hists, key, name, ls, newHistogram)
}

func newCounter() *Counter { return &Counter{} }

func newGauge() *Gauge { return &Gauge{} }

// lookup returns the metric of set under key, creating it with fresh
// and recording name and sorted labels on first use.
func lookup[M any](r *Registry, set map[string]series[M], key, name string, labels []Label, fresh func() *M) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := set[key]
	if !ok {
		s = series[M]{name: name, labels: labels, m: fresh()}
		set[key] = s
	}
	return s.m
}

// Merge folds every metric of b into r under the same names and
// labels: counters and histograms accumulate, gauges sum. The sweeps
// label each cell's series with the cell coordinates, so in practice
// gauge series never collide and "sum" degenerates to "copy"; summing
// keeps Merge total and deterministic for the series that do.
func (r *Registry) Merge(b *Registry) {
	if b == nil || b == r {
		return
	}
	// Snapshot b's series under its lock only, so r.Merge(b) and
	// b.Merge(r) running together cannot deadlock.
	b.mu.Lock()
	counts := maps.Clone(b.counts)
	gauges := maps.Clone(b.gauges)
	hists := maps.Clone(b.hists)
	b.mu.Unlock()

	for k, s := range counts {
		lookup(r, r.counts, k, s.name, s.labels, newCounter).Add(s.m.Value())
	}
	for k, s := range gauges {
		lookup(r, r.gauges, k, s.name, s.labels, newGauge).Add(s.m.Value())
	}
	for k, s := range hists {
		lookup(r, r.hists, k, s.name, s.labels, newHistogram).merge(s.m)
	}
}
