// Command library runs the multi-drive library experiment: the same
// synthetic tape store served at every (arrival rate, drive count,
// batch limit) cell of tertiary.Sweep, measuring delivered
// throughput, latency, cartridge exchanges and robot-arm contention.
// The output is deterministic at any -workers value; CI regenerates
// results/library.txt from it and fails on drift.
//
//	library                          # default grid > results/library.txt
//	library -rates 120,480 -drives 4 # heavier load, bigger pool
//	library -metrics                 # append the Prometheus metrics dump
//	library -listen :8080            # /metrics /statusz /tracez /debug/pprof
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"serpentine/internal/grid"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("library: ")
	var (
		tapes    = flag.Int("tapes", 4, "cartridges in the library")
		objects  = flag.Int("objects", 512, "cataloged objects per cartridge")
		objSegs  = flag.Int("objsegs", 32, "segments per object (32 = 1 MB)")
		requests = flag.Int("requests", 400, "requests in each cell's stream")
		rates    = flag.String("rates", "60,120,240", "comma-separated arrival rates, requests per hour")
		drives   = flag.String("drives", "1,2", "comma-separated transport pool sizes")
		limits   = flag.String("limits", "1,16,0", "comma-separated batch limits (0 = unlimited)")
		queue    = flag.Int("queue", 0, "admission queue capacity (0 = unbounded)")
		seed     = flag.Int64("seed", 11, "base seed; each cell derives its own")
		workers  = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS); any value gives identical output")
		metrics  = flag.Bool("metrics", false, "append the merged Prometheus metrics dump")
		listen   = flag.String("listen", "", "serve live introspection (/metrics /statusz /tracez /debug/pprof) on this address and block after the run")
		spanCap  = flag.Int("spancap", 8192, "per-cell span store capacity for -listen tracing")
	)
	flag.Parse()

	cfg := tertiary.SweepConfig{
		TapeCount:      *tapes,
		Objects:        *objects,
		ObjectSegments: *objSegs,
		Requests:       *requests,
		QueueCap:       *queue,
		Seed:           *seed,
		Workers:        *workers,
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
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		cfg.Reg = reg
	}
	if *listen != "" {
		if reg == nil {
			reg = obs.NewRegistry()
			cfg.Reg = reg
		}
		cfg.SpanCap = *spanCap
	}

	cells, err := tertiary.Sweep(cfg)
	if err != nil {
		log.Fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# library sweep: %d tapes x %d objects (%d segments each), %d requests per cell, seed %d\n",
		*tapes, *objects, *objSegs, *requests, *seed)
	fmt.Fprintf(w, "# cells: rates {%s} x drives {%s} x batch limits {%s}\n\n", *rates, *drives, *limits)
	if err := tertiary.WriteLibrary(w, cells); err != nil {
		log.Fatal(err)
	}
	if reg != nil && *metrics {
		fmt.Fprintln(w, "# metrics")
		if err := reg.WriteProm(w); err != nil {
			log.Fatal(err)
		}
	}
	if *listen != "" {
		w.Flush()
		log.Fatal(obs.ServeReplay(*listen, reg, cells, func(c tertiary.Cell) []obs.Span { return c.Spans }))
	}
}
