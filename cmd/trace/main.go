// Command trace runs a fault-injected multi-drive library sweep with
// span tracing armed and writes the observability evidence:
//
//   - a Chrome trace-event export of every cell's span hierarchy
//     (load into chrome://tracing or https://ui.perfetto.dev), one
//     process per cell, one lane per drive, and
//   - the per-request latency attribution tables, whose seven phase
//     columns — queue, robot, mount, locate, transfer, retry,
//     rescue — sum back to each request's sojourn within 1e-9 s.
//
// Both files are byte-identical at any -workers value: every cell
// records into its own tracer and the cells are assembled in spec
// order. CI regenerates them and fails on drift.
//
//	trace                    # writes results/trace.json + results/attribution.txt
//	trace -workers 8         # identical output
//	trace -rates 240 -limits 4 -requests 48 -trace /tmp/t.json -attrib /tmp/a.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"

	"serpentine/internal/fault"
	"serpentine/internal/grid"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace: ")
	var (
		tapes     = flag.Int("tapes", 2, "cartridges in the library")
		objects   = flag.Int("objects", 64, "cataloged objects per cartridge")
		requests  = flag.Int("requests", 32, "requests in each cell's stream")
		rates     = flag.String("rates", "120,480", "comma-separated arrival rates, requests per hour")
		drives    = flag.String("drives", "2", "comma-separated transport pool sizes")
		limits    = flag.String("limits", "8", "comma-separated batch limits (0 = unlimited)")
		spanCap   = flag.Int("spancap", 8192, "per-cell span store capacity")
		seed      = flag.Int64("seed", 5, "base seed; each cell derives its own")
		workers   = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS); any value gives identical output")
		tracePath = flag.String("trace", "results/trace.json", "Chrome trace-event output path")
		attrPath  = flag.String("attrib", "results/attribution.txt", "latency attribution table output path")
		transient = flag.Float64("transient", 0.02, "transient read-error rate (per read)")
		overshoot = flag.Float64("overshoot", 0.01, "locate-overshoot rate (per locate)")
		lost      = flag.Float64("lost", 0.002, "lost-servo-position rate (per locate)")
		media     = flag.Float64("media", 0.0005, "fraction of media-bad segments")
	)
	flag.Parse()

	cfg := tertiary.SweepConfig{
		TapeCount: *tapes,
		Objects:   *objects,
		Requests:  *requests,
		Seed:      *seed,
		Workers:   *workers,
		SpanCap:   *spanCap,
		Faults: fault.Config{
			TransientRate: *transient,
			OvershootRate: *overshoot,
			LostRate:      *lost,
			MediaRate:     *media,
		},
	}
	var err error
	if cfg.RatesPerHour, err = grid.AxisList(*rates, math.SmallestNonzeroFloat64); err != nil {
		log.Fatalf("bad -rates: %v", err)
	}
	if cfg.DriveCounts, err = grid.AxisList(*drives, 1); err != nil {
		log.Fatalf("bad -drives: %v", err)
	}
	if cfg.BatchLimits, err = grid.AxisList(*limits, 0); err != nil {
		log.Fatalf("bad -limits: %v", err)
	}

	cells, err := tertiary.Sweep(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if err := writeTrace(*tracePath, cells); err != nil {
		log.Fatal(err)
	}
	if err := writeAttribution(*attrPath, cfg, cells); err != nil {
		log.Fatal(err)
	}

	spans, comps := 0, 0
	for _, c := range cells {
		spans += len(c.Spans)
		comps += len(c.Completions)
	}
	fmt.Printf("wrote %s (%d spans, %d cells) and %s (%d requests)\n",
		*tracePath, spans, len(cells), *attrPath, comps)
}

func cellName(c tertiary.Cell) string {
	limit := strconv.Itoa(c.BatchLimit)
	if c.BatchLimit == 0 {
		limit = "unlim"
	}
	return fmt.Sprintf("rate=%g drives=%d batch=%s", c.RatePerHour, c.Drives, limit)
}

func writeTrace(path string, cells []tertiary.Cell) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sets := make([]obs.TraceSet, 0, len(cells))
	for _, c := range cells {
		sets = append(sets, obs.TraceSet{Name: cellName(c), Spans: c.Spans})
	}
	if err := obs.WriteChromeTrace(w, sets); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeAttribution(path string, cfg tertiary.SweepConfig, cells []tertiary.Cell) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# per-request latency attribution: %d tapes x %d objects, %d requests/cell, seed %d\n",
		cfg.TapeCount, cfg.Objects, cfg.Requests, cfg.Seed)
	fmt.Fprintf(w, "# faults: transient=%g overshoot=%g lost=%g media=%g\n",
		cfg.Faults.TransientRate, cfg.Faults.OvershootRate, cfg.Faults.LostRate, cfg.Faults.MediaRate)
	for _, c := range cells {
		fmt.Fprintf(w, "\n# cell %s\n", cellName(c))
		if err := tertiary.WriteAttribution(w, c.Completions); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
