// Command events generates the committed wide-event evidence: a fleet
// run with every failure domain armed — lifecycle cartridge loss on a
// replicated store, a staging cache, a queue cap and a service
// deadline — so the log exercises every terminal outcome (served,
// failed, rejected, shed), both cache hits and tape reads, and every
// routing class. One JSONL line per request, ordered by terminal
// time, stamped with the cell's coordinate labels and the request's
// full latency attribution.
//
// Usage:
//
//	events                       # the full log to stdout
//	events -out results/events.jsonl
//	events -workers 8 -head 50   # head sample per cell, any worker count
//
// The log is a pure function of the flags: byte-identical at any
// -workers, which scripts/determinism.sh pins.
package main

import (
	"flag"
	"io"
	"log"
	"os"

	"serpentine/internal/fault"
	"serpentine/internal/fleet"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("events: ")
	var (
		requests = flag.Int("requests", 200, "requests per cell")
		head     = flag.Int("head", 0, "lines to emit per cell (0 = the full log)")
		seed     = flag.Int64("seed", 1, "workload and routing seed")
		workers  = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		out      = flag.String("out", "-", "output path (- = stdout)")
	)
	flag.Parse()

	cells, err := fleet.Sweep(fleet.SweepConfig{
		TapeCount:    16,
		Objects:      128,
		Replicas:     2,
		RatesPerHour: []float64{120, 480},
		ShardCounts:  []int{2},
		Routers:      []fleet.Router{fleet.Affinity{}},
		Drives:       2,
		BatchLimit:   16,
		QueueCap:     16,
		DeadlineSec:  1200,
		Locality:     0.25,
		Lifecycle:    fault.LifecycleConfig{CartridgeLossRate: 0.05},
		Cache:        hsm.Config{CapacityBytes: 64 << 20},
		Requests:     *requests,
		Seed:         *seed,
		Workers:      *workers,
		EventCap:     *requests,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Cells arrive in spec order whatever the worker count; the merged
	// log is their per-cell (already terminal-time-ordered) logs
	// concatenated in that order. The head sample is taken per cell so
	// every sweep coordinate — each arrival rate — stays represented in
	// the committed evidence, not just whichever cell sorts first.
	var events []obs.Event
	for _, c := range cells {
		cell := c.Events
		if *head > 0 && len(cell) > *head {
			cell = cell[:*head]
		}
		events = append(events, cell...)
	}

	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := obs.WriteEventsJSONL(w, events); err != nil {
		log.Fatal(err)
	}
}
