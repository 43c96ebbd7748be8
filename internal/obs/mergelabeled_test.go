package obs

import (
	"reflect"
	"testing"
)

// TestParseLabelBlockRoundTrip pins parseLabelBlock as the exact
// inverse of the block metricKey renders, including every escape
// promEscape emits.
func TestParseLabelBlockRoundTrip(t *testing.T) {
	cases := [][]Label{
		nil,
		{L("shard", "0")},
		{L("rate", "120"), L("drives", "2")},
		{L("q", `say "hi"`)},
		{L("path", `a\b`)},
		{L("multi", "line\nbreak")},
		{L("mix", "\\\"\n"), L("tab", "a\tb")}, // tab passes through raw
	}
	for _, labels := range cases {
		key := metricKey("m", labels)
		name, block := splitKey(key)
		if name != "m" {
			t.Fatalf("splitKey(%q) name = %q", key, name)
		}
		got, ok := parseLabelBlock(block)
		if !ok {
			t.Fatalf("parseLabelBlock(%q) failed", block)
		}
		// metricKey sorts labels, so compare by re-rendering.
		if rekeyed := metricKey("m", got); rekeyed != key {
			t.Fatalf("round trip %q -> %v -> %q", key, got, rekeyed)
		}
	}
}

func TestParseLabelBlockRejectsMalformed(t *testing.T) {
	for _, block := range []string{
		"{", "}", "{}", `{k}`, `{k=}`, `{k="v}`, `{k="v",}`,
		`{="v"}`, `{k="a\x"}`, `{k="v"x}`, `{k="\"}`,
		"{k=\"a\nb\"}", // a raw newline: promEscape renders it as \n
	} {
		if labels, ok := parseLabelBlock(block); ok {
			t.Errorf("parseLabelBlock(%q) accepted: %v", block, labels)
		}
	}
}

// TestMergeLabeled pins the fleet's shard fold: identical shard-local
// series land on distinct cluster series keyed by the extra label,
// and the extra label composes with existing labels in sorted order.
func TestMergeLabeled(t *testing.T) {
	agg := NewRegistry()
	for shard := 0; shard < 2; shard++ {
		r := NewRegistry()
		r.Counter("served_total").Add(int64(10 + shard))
		r.Counter("served_total", L("alg", "LOSS")).Add(int64(100 + shard))
		r.Gauge("clock_seconds").Set(float64(5 * (shard + 1)))
		r.Histogram("latency_seconds").Observe(float64(shard + 1))
		label := L("shard", string(rune('0'+shard)))
		agg.MergeLabeled(r, label)
	}

	if v := agg.Counter("served_total", L("shard", "0")).Value(); v != 10 {
		t.Errorf("shard 0 served = %d, want 10", v)
	}
	if v := agg.Counter("served_total", L("shard", "1")).Value(); v != 11 {
		t.Errorf("shard 1 served = %d, want 11", v)
	}
	if v := agg.Counter("served_total", L("alg", "LOSS"), L("shard", "1")).Value(); v != 101 {
		t.Errorf("labeled shard 1 served = %d, want 101", v)
	}
	if v := agg.Gauge("clock_seconds", L("shard", "1")).Value(); v != 10 {
		t.Errorf("shard 1 clock = %g, want 10", v)
	}
	h := agg.Histogram("latency_seconds", L("shard", "0"))
	if n := h.Count(); n != 1 {
		t.Errorf("shard 0 histogram count = %d, want 1", n)
	}
	// No unlabeled residue: everything was re-keyed.
	if v := agg.Counter("served_total").Value(); v != 0 {
		t.Errorf("unlabeled served = %d, want 0", v)
	}
}

// TestMergeLabeledNoExtras degenerates to Merge.
func TestMergeLabeledNoExtras(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	b.Counter("x", L("k", "v")).Add(3)
	a.MergeLabeled(b)
	if v := a.Counter("x", L("k", "v")).Value(); v != 3 {
		t.Fatalf("merged counter = %d, want 3", v)
	}
}

func TestRelabelKeyEscapedValues(t *testing.T) {
	key := metricKey("m", []Label{L("q", `a"b\c`)})
	got := relabelKey(key, []Label{L("shard", "2")})
	want := metricKey("m", []Label{L("q", `a"b\c`), L("shard", "2")})
	if got != want {
		t.Fatalf("relabelKey = %q, want %q", got, want)
	}
	if !reflect.DeepEqual(relabelKey("plain", nil), "plain") {
		t.Fatalf("relabelKey(plain) changed the key")
	}
}
