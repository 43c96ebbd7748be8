// Command perfbench is the repository's benchmark: it builds one of
// three workloads from a seed, runs it against the simulator for a
// fixed host time, checks the simulated outputs, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload library --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload untraced and then traced, and reports the per-layer
// metrics. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// endToEnd and perLayer list every reported metric with its unit. A
// workload that does not exercise a layer reports that layer's
// metrics as 0.
var endToEnd = []struct{ name, unit string }{
	{"sim_reqs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"served_frac", "frac"},
	{"retrievals_per_h", "1/h"},
	{"sojourn_p50_s", "s"},
	{"sojourn_p99_s", "s"},
	{"slo_met_frac", "frac"},
	{"max_rate_per_h", "1/h"},
}

var perLayer = []struct{ name, unit string }{
	{"locate.evals", "count"},
	{"locate.busy_s", "s"},
	{"locate.ns_per_eval", "ns"},
	{"locate.est_error_frac", "frac"},
	{"core.schedules", "count"},
	{"core.reqs_per_schedule", "count"},
	{"core.busy_s", "s"},
	{"core.self_s", "s"},
	{"core.schedule_ms_p50", "ms"},
	{"core.schedule_ms_p99", "ms"},
	{"sim.busy_s", "s"},
	{"sim.retries", "count"},
	{"sim.replans", "count"},
	{"drive.new_us", "us"},
	{"drive.constructions", "count"},
	{"drive.new_share", "frac"},
	{"tertiary.busy_s", "s"},
	{"tertiary.self_s", "s"},
	{"tertiary.mounts", "count"},
	{"tertiary.reqs_per_mount", "count"},
	{"tertiary.robot_wait_s", "s"},
	{"tertiary.queue_wait_p99_s", "s"},
	{"tertiary.drive_util", "frac"},
	{"tertiary.max_queue_depth", "count"},
	{"tertiary.failed", "count"},
	{"tertiary.rescued", "count"},
	{"hsm.hit_frac", "frac"},
	{"hsm.passthrough_ns_per_req", "ns"},
	{"fleet.route_calls", "count"},
	{"fleet.route_ns_per_call", "ns"},
	{"fleet.passthrough_ns_per_req", "ns"},
	{"fleet.affinity_frac", "frac"},
	{"fleet.cross_shard_frac", "frac"},
	{"fleet.unroutable", "count"},
	{"fleet.shard_skew", "ratio"},
	{"obs.events", "count"},
	{"obs.emit_ns_per_req", "ns"},
	{"obs.health_ns_per_req", "ns"},
	{"obs.slo_ingest_ns_per_event", "ns"},
	{"obs.alerts", "count"},
	{"trace_overhead_frac", "frac"},
}

var workloads = []string{"paper-batch", "library", "fleet"}

func newWorkload(name string, seed int64) (bench, error) {
	switch name {
	case "paper-batch":
		return newPaperBatch(seed), nil
	case "library":
		return newLibrary(seed), nil
	case "fleet":
		return newFleetWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-batch, library, fleet or all)", name)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "paper-batch, library, fleet, or all (one after another)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds each workload's timed phase runs")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	spansDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloads
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		w, err := newWorkload(n, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		spans := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.tsv", n, *seed))
		r, err := measure(w, *seconds, *trace == 1, spans)
		res.Attempted += r.attempted
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			printJSON(result{Correct: false, Attempted: max(res.Attempted, 1), Failed: 1, Metrics: map[string]metric{}})
			os.Exit(1)
		}
		list, got := endToEnd, r.e2e
		if *trace == 1 {
			list, got = perLayer, r.layer
		}
		fmt.Printf("== %s (seed %d)\n", n, *seed)
		for _, note := range r.notes {
			fmt.Println("  " + note)
		}
		for _, m := range list {
			v := got[m.name]
			v.Unit = m.unit
			fmt.Printf("  %-30s %16.6g %s\n", m.name, v.Value, m.unit)
			key := m.name
			if len(names) > 1 {
				key = n + "/" + m.name
			}
			res.Metrics[key] = v
		}
		for k := range got {
			if !listed(list, k) {
				fmt.Fprintf(os.Stderr, "perfbench: %s reports unlisted metric %q\n", n, k)
				os.Exit(1)
			}
		}
	}
	printJSON(res)
}

func listed(list []struct{ name, unit string }, name string) bool {
	for _, m := range list {
		if m.name == name {
			return true
		}
	}
	return false
}

func printJSON(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
