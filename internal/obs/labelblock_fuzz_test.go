package obs

import (
	"reflect"
	"sort"
	"testing"
)

// FuzzParseLabelBlock fuzzes the series-identity boundary MergeLabeled
// crosses: relabelKey splits a shard's series key and parses its label
// block back with parseLabelBlock before re-rendering it through
// metricKey with the extra label. Arbitrary bytes must never panic, and
// every block parseLabelBlock accepts must round-trip: metricKey
// renders the parsed labels into a key whose block parses back to the
// same labels (in metricKey's key order), and re-rendering that is a
// fixed point. A block whose keys are already strictly sorted renders
// back byte for byte. relabelKey on the raw bytes must not panic
// either, whether or not the block parses.
func FuzzParseLabelBlock(f *testing.F) {
	for _, seed := range []string{
		"",
		`{shard="0"}`,
		`{drives="2",rate="120"}`,
		`{rate="120",drives="2"}`,
		`{q="say \"hi\"",path="a\\b",multi="line\nbreak"}`,
		`{k="a",k="b"}`,
		`{,="1",a}="2",b"="3"}`,
		"{tab=\"a\tb\"}",
		"{", "}", "{}", `{k}`, `{k="v",}`, `{k="a\x"}`, `{k="\"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, block string) {
		_ = relabelKey("m"+block, []Label{L("shard", "1")})
		labels, ok := parseLabelBlock(block)
		if !ok {
			return
		}
		key := metricKey("m", labels)
		name, rendered := splitKey(key)
		if name != "m" {
			t.Fatalf("metricKey(%q) = %q splits to name %q", block, key, name)
		}
		again, ok := parseLabelBlock(rendered)
		if !ok {
			t.Fatalf("block %q parsed to %q, whose rendering %q does not parse", block, labels, rendered)
		}
		sorted := append([]Label(nil), labels...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		if !keysEqual(again, sorted) {
			t.Fatalf("block %q: labels %q rendered as %q parse back as %q", block, labels, rendered, again)
		}
		if rekeyed := metricKey("m", again); rekeyed != key {
			t.Fatalf("block %q: rendering is not a fixed point: %q then %q", block, key, rekeyed)
		}
		strictlySorted := true
		for i := 1; i < len(labels); i++ {
			if labels[i-1].Key >= labels[i].Key {
				strictlySorted = false
			}
		}
		if strictlySorted && rendered != block {
			t.Fatalf("sorted block %q re-rendered as %q", block, rendered)
		}
		if strictlySorted && !reflect.DeepEqual(again, labels) {
			t.Fatalf("sorted block %q parsed as %q, then as %q", block, labels, again)
		}
	})
}

// keysEqual compares two label lists that agree on key order: labels
// sharing a key may come back from metricKey's unstable sort in either
// order, so within a run of equal keys the values compare as multisets.
func keysEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); {
		j := i
		for j < len(a) && a[j].Key == a[i].Key {
			j++
		}
		va, vb := make([]string, 0, j-i), make([]string, 0, j-i)
		for k := i; k < j; k++ {
			if b[k].Key != a[i].Key {
				return false
			}
			va, vb = append(va, a[k].Value), append(vb, b[k].Value)
		}
		sort.Strings(va)
		sort.Strings(vb)
		if !reflect.DeepEqual(va, vb) {
			return false
		}
		i = j
	}
	return true
}
