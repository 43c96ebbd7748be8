// Command chaos runs the fault-injection experiment: the chained
// steady-state scenario executed on the emulated drive while the
// injected fault rate rises, for every scheduler the paper evaluates.
// It reports delivered throughput (completed I/Os per hour), p99
// per-request completion time, and the recovery work — retries,
// replans, recalibrations, permanently failed requests — each
// scheduling policy induces.
//
//	chaos
//	chaos -batch 192 -batches 20 -rates 0,1,2,4,8
//	chaos -algs LOSS,SLTF,SCAN -seed 7 -workers 4
//	chaos -metrics prom
//
// Runs are fully deterministic: the same flags produce the same
// output at any worker count.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/grid"
	"serpentine/internal/obs"
	"serpentine/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	var (
		serial    = flag.Int64("serial", 1, "cartridge serial number")
		algs      = flag.String("algs", "", "comma-separated schedulers (default: the paper's eight)")
		rateList  = flag.String("rates", "0,0.5,1,2,4", "comma-separated fault-rate multipliers")
		batch     = flag.Int("batch", 96, "requests per batch")
		batches   = flag.Int("batches", 12, "chained batches per cell")
		warmup    = flag.Int("warmup", 2, "warmup batches excluded from statistics (0 = the default, 2)")
		readLen   = flag.Int("readlen", 1, "segments transferred per request")
		seed      = flag.Int64("seed", 1, "request-generation and fault seed")
		workers   = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		transient = flag.Float64("transient", 0.02, "base transient read-error rate (per read)")
		overshoot = flag.Float64("overshoot", 0.01, "base locate-overshoot rate (per locate)")
		lost      = flag.Float64("lost", 0.002, "base lost-servo-position rate (per locate)")
		media     = flag.Float64("media", 0.0005, "base fraction of media-bad segments")
		metrics   = flag.String("metrics", "", "append the per-cell recovery metrics dump: 'prom' or 'json'")
	)
	flag.Parse()

	cfg := server.ChaosConfig{
		Serial:    *serial,
		BatchSize: *batch,
		Batches:   *batches,
		Warmup:    *warmup,
		ReadLen:   *readLen,
		Seed:      *seed,
		Workers:   *workers,
		Base: fault.Config{
			TransientRate: *transient,
			OvershootRate: *overshoot,
			LostRate:      *lost,
			MediaRate:     *media,
		},
	}
	var err error
	if cfg.Rates, err = grid.AxisList(*rateList, 0.0); err != nil {
		log.Fatalf("bad -rates: %v", err)
	}
	if *algs != "" {
		for _, name := range strings.Split(*algs, ",") {
			s, err := core.ByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			cfg.Schedulers = append(cfg.Schedulers, s)
		}
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		cfg.Reg = reg
		// Dumping the still empty registry checks the format up front.
		if err := reg.WriteFormat(io.Discard, *metrics); err != nil {
			log.Fatalf("bad -metrics: %v", err)
		}
	}

	cells, err := server.ChaosSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	writeHeader(w, cfg)
	if err := server.WriteChaos(w, cells); err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		fmt.Fprintln(w, "# metrics")
		if err := reg.WriteFormat(w, *metrics); err != nil {
			log.Fatal(err)
		}
	}
}

// writeHeader prints the sweep's shape as ChaosSweep ran it: zero
// sizes and an all-zero fault mix select their defaults, so the header
// reads the resolved configuration, not the flags.
func writeHeader(w io.Writer, cfg server.ChaosConfig) {
	r := cfg.Resolved()
	fmt.Fprintf(w, "# chaos: %d-request batches, %d measured batches/cell, base mix transient=%g overshoot=%g lost=%g media=%g, seed %d\n\n",
		r.BatchSize, r.Batches-r.Warmup, r.Base.TransientRate, r.Base.OvershootRate, r.Base.LostRate, r.Base.MediaRate, r.Seed)
}
