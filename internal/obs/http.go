package obs

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Live introspection: the same deterministic dumps the experiment
// commands commit as evidence, served over HTTP so a running (or just
// finished) process can be inspected with curl or a Prometheus
// scrape. The handlers only read registry, tracer, and SLO state
// under their own locks — attaching them changes nothing about a run.

// MuxConfig names the observability surfaces a mux exposes. Every
// field may be nil; the corresponding endpoints then render empty.
type MuxConfig struct {
	// Reg feeds /metrics and /statusz.
	Reg *Registry
	// Tracer feeds /tracez and the span stats in /statusz.
	Tracer *Tracer
	// SLO feeds /healthz (objective state, budgets, alerts).
	SLO *SLOEngine
	// Health adds per-entity health scores to /healthz.
	Health *HealthTracker
	// Events adds wide-event ring stats to /statusz.
	Events *EventRing
}

// NewMux returns a mux exposing the configured surfaces:
//
//	/metrics      Prometheus text exposition (WriteProm)
//	/statusz      JSON snapshot: span/event store stats, per-shard
//	              counters, every metric
//	/healthz      JSON SLO state: objectives, budgets, burn rules,
//	              alert log, health scores
//	/tracez       recent spans as the text timeline (WriteTimeline)
//	/debug/pprof  the standard pprof handlers
func NewMux(cfg MuxConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.Reg != nil {
			_ = cfg.Reg.WriteProm(w)
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tr := cfg.Tracer
		fmt.Fprintf(w, "{\n\"spans\": {\"kept\": %d, \"total\": %d, \"dropped\": %d},\n",
			len(tr.Spans()), tr.Total(), tr.Dropped())
		fmt.Fprintf(w, "\"events\": {\"kept\": %d, \"total\": %d, \"dropped\": %d},\n",
			len(cfg.Events.Events()), cfg.Events.Total(), cfg.Events.Dropped())
		fmt.Fprint(w, "\"shards\": ")
		if cfg.Reg != nil {
			_ = cfg.Reg.WriteShardsJSON(w)
		} else {
			fmt.Fprintln(w, "{}")
		}
		fmt.Fprint(w, ",\n\"metrics\": ")
		if cfg.Reg != nil {
			_ = cfg.Reg.WriteJSON(w)
		} else {
			fmt.Fprintln(w, "{}")
		}
		fmt.Fprintln(w, "}")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if cfg.SLO == nil && cfg.Health == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		fmt.Fprint(w, "{\n\"slo\": ")
		if cfg.SLO != nil {
			_ = cfg.SLO.WriteHealthJSON(w)
		} else {
			fmt.Fprintln(w, "{}")
		}
		fmt.Fprint(w, ",\n\"health\": {")
		keys := cfg.Health.Keys()
		for i, k := range keys {
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			fmt.Fprintf(w, "\n  %q: %s%s", k, formatFloat(cfg.Health.Score(k)), sep)
		}
		fmt.Fprintln(w, "}\n}")
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tr := cfg.Tracer
		fmt.Fprintf(w, "# spans: %d kept, %d recorded, %d dropped\n", len(tr.Spans()), tr.Total(), tr.Dropped())
		_ = WriteTimeline(w, tr.Spans())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// WriteShardsJSON renders the registry's shard-labeled series grouped
// by shard: {"0": {"fleet_offered": 12, ...}, ...}, keys sorted
// numerically then lexically, series re-keyed without their shard
// label. Fleet runs record every shard's series under a shard label,
// and this is the per-shard view: one object per shard so a live
// -listen fleet run shows per-shard state at a glance.
func (r *Registry) WriteShardsJSON(w io.Writer) error {
	shards := make(map[string]map[string]string)
	add := func(name string, labels []Label, v string) {
		shard := ""
		rest := make([]Label, 0, len(labels))
		for _, l := range labels {
			if l.Key == "shard" {
				shard = l.Value
				continue
			}
			rest = append(rest, l)
		}
		if shard == "" {
			return
		}
		m := shards[shard]
		if m == nil {
			m = make(map[string]string)
			shards[shard] = m
		}
		m[name+labelBlock(rest)] = v
	}
	r.mu.Lock()
	for _, s := range r.counts {
		add(s.name, s.labels, strconv.FormatInt(s.m.Value(), 10))
	}
	for _, s := range r.gauges {
		add(s.name, s.labels, formatFloat(s.m.Value()))
	}
	r.mu.Unlock()

	ids := make([]string, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, erra := strconv.Atoi(ids[i])
		b, errb := strconv.Atoi(ids[j])
		if erra == nil && errb == nil {
			return a < b
		}
		return ids[i] < ids[j]
	})
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, id := range ids {
		sep := ","
		if i == len(ids)-1 {
			sep = ""
		}
		keys := make([]string, 0, len(shards[id]))
		for k := range shards[id] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if _, err := fmt.Fprintf(w, "\n  %q: {", id); err != nil {
			return err
		}
		for j, k := range keys {
			ks := ","
			if j == len(keys)-1 {
				ks = ""
			}
			if _, err := fmt.Fprintf(w, "\n    %q: %s%s", k, shards[id][k], ks); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "}%s", sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// Serve binds addr (host:port; ":0" picks a free port), serves NewMux
// on it in a background goroutine for the life of the process, and
// returns the bound address. The experiment commands call this behind
// their -listen flag.
func Serve(addr string, cfg MuxConfig) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		srv := &http.Server{Handler: NewMux(cfg)}
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// ServeReplay replays every cell's spans into one tracer in cell order
// — the same order at any worker count, so /tracez shows the
// deterministic timeline — serves it with reg on addr (see Serve),
// logs the bound address, and blocks for the life of the process. It
// returns only when addr cannot be bound. The sweep commands call it
// behind their -listen flag, after the sweep.
func ServeReplay[C any](addr string, reg *Registry, cells []C, spans func(C) []Span) error {
	n := 0
	for _, c := range cells {
		n += len(spans(c))
	}
	tracer := NewTracer(n)
	for _, c := range cells {
		for _, s := range spans(c) {
			tracer.Record(s)
		}
	}
	bound, err := Serve(addr, MuxConfig{Reg: reg, Tracer: tracer})
	if err != nil {
		return err
	}
	log.Printf("introspection on http://%s (/metrics /statusz /tracez /debug/pprof); ^C to exit", bound)
	select {}
}
