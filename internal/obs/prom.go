package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteProm dumps the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, then the
// series in sorted order. Counters dump as `<name> <value>`, gauges
// likewise, histograms as the conventional cumulative `_bucket{le=}`
// series plus `_sum` and `_count`. Output is deterministic: families
// and series render in lexical order and values use strconv's
// shortest-round-trip formatting.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	type line struct{ key, val string }
	fams := make(map[string]string) // family name -> type
	bySeries := make(map[string][]line)
	for k, s := range r.counts {
		fams[s.name] = "counter"
		bySeries[s.name] = append(bySeries[s.name], line{k, strconv.FormatInt(s.m.Value(), 10)})
	}
	for k, s := range r.gauges {
		fams[s.name] = "gauge"
		bySeries[s.name] = append(bySeries[s.name], line{k, formatFloat(s.m.Value())})
	}
	type histSnap struct {
		key     string
		labels  []Label
		buckets []int64
		count   int
		sum     float64
	}
	histFams := make(map[string][]histSnap)
	for k, s := range r.hists {
		fams[s.name] = "histogram"
		h := s.m
		h.mu.Lock()
		buckets := make([]int64, len(h.buckets))
		copy(buckets, h.buckets)
		snap := histSnap{key: k, labels: s.labels, buckets: buckets, count: h.acc.N(), sum: h.sum}
		h.mu.Unlock()
		histFams[s.name] = append(histFams[s.name], snap)
	}
	r.mu.Unlock()

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fams[name]); err != nil {
			return err
		}
		if fams[name] == "histogram" {
			snaps := histFams[name]
			sort.Slice(snaps, func(i, j int) bool { return snaps[i].key < snaps[j].key })
			for _, s := range snaps {
				if err := writePromHist(w, name, s.labels, s.buckets, s.count, s.sum); err != nil {
					return err
				}
			}
			continue
		}
		ss := bySeries[name]
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
		for _, s := range ss {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.key, s.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist renders one histogram series: its cumulative buckets
// with le appended after the series labels, then _sum and _count.
func writePromHist(w io.Writer, name string, labels []Label, buckets []int64, count int, sum float64) error {
	block := labelBlock(labels)
	cum := int64(0)
	for i, c := range buckets {
		cum += c
		le := "+Inf"
		if i < len(histBounds) {
			le = formatFloat(histBounds[i])
		}
		withLE := append(labels[:len(labels):len(labels)], L("le", le))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelBlock(withLE), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, block, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, block, count)
	return err
}

// formatFloat renders a value the same way on every run: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteFormat dumps the registry in the named format: "prom"
// (WriteProm) or "json" (WriteJSON). Any other name is an error, and
// nothing is written.
func (r *Registry) WriteFormat(w io.Writer, format string) error {
	switch format {
	case "prom":
		return r.WriteProm(w)
	case "json":
		return r.WriteJSON(w)
	}
	return fmt.Errorf("obs: unknown metrics format %q (want prom or json)", format)
}

// WriteJSON dumps the registry as a flat expvar-style JSON object:
// every counter and gauge keyed by its series identity, and per
// histogram the count, sum, mean and exact p50/p95/p99. Keys render
// in sorted order so the dump is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	entries := make(map[string]string)
	for k, s := range r.counts {
		entries[k] = strconv.FormatInt(s.m.Value(), 10)
	}
	for k, s := range r.gauges {
		entries[k] = formatFloat(s.m.Value())
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, s := range r.hists {
		hists[k] = s.m
	}
	r.mu.Unlock()
	for k, h := range hists {
		entries[k] = fmt.Sprintf(`{"count":%d,"sum":%s,"mean":%s,"p50":%s,"p95":%s,"p99":%s}`,
			h.Count(), formatFloat(h.Sum()), formatFloat(h.Mean()),
			formatFloat(h.Quantile(50)), formatFloat(h.Quantile(95)), formatFloat(h.Quantile(99)))
	}

	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "  %q: %s%s\n", k, entries[k], sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
