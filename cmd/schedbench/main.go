// Command schedbench regenerates the paper's simulation study
// (Section 5): Figure 4 (mean time per locate, random starting
// point), Figure 5 (starting at the beginning of tape), Figure 6 (CPU
// time to generate a schedule) and the Section 8 summary of random
// retrieval rates.
//
//	schedbench -start random            # Figure 4
//	schedbench -start bot               # Figure 5
//	schedbench -cpu -workers 1          # Figure 6
//	schedbench -summary                 # Section 8 rates vs the paper
//	schedbench -divisor 1               # full paper trial counts (slow)
//
// Trial counts default to the paper's divided by -divisor so a figure
// regenerates in seconds; statistics converge well below the paper's
// 100,000 trials (the paper itself reports <0.5% variation across
// seeds).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"serpentine/internal/core"
	"serpentine/internal/geometry"
	"serpentine/internal/grid"
	"serpentine/internal/locate"
	"serpentine/internal/sim"
	"serpentine/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("schedbench: ")
	var (
		serial  = flag.Int64("serial", 1, "cartridge serial number")
		start   = flag.String("start", "random", "initial head position: random | bot")
		divisor = flag.Int("divisor", 500, "divide the paper's trial counts by this")
		seed    = flag.Int64("seed", 12345, "experiment seed")
		algs    = flag.String("algs", "READ,FIFO,OPT,SORT,SLTF,SCAN,WEAVE,LOSS", "comma-separated algorithms")
		lengths = flag.String("lengths", "", "comma-separated schedule lengths (default: paper grid)")
		optMax  = flag.Int("optmax", 12, "largest batch handed to OPT")
		workers = flag.Int("workers", 0, "parallel workers (0 = all cores; use 1 for Figure 6)")
		cpu     = flag.Bool("cpu", false, "print Figure 6 (CPU s per schedule) instead of per-locate times")
		stddev  = flag.Bool("stddev", false, "also print the total-time standard deviation table")
		summary = flag.Bool("summary", false, "print the Section 8 retrieval-rate summary")
		plot    = flag.Bool("plot", false, "render the per-locate curves as an ASCII chart (log-x)")
	)
	flag.Parse()

	tape, err := geometry.Generate(geometry.DLT4000(), *serial)
	if err != nil {
		log.Fatal(err)
	}
	model, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		log.Fatal(err)
	}

	var schedulers []core.Scheduler
	for _, name := range strings.Split(*algs, ",") {
		s, err := core.ByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		schedulers = append(schedulers, s)
	}

	cfg := sim.Config{
		Model:      model,
		Schedulers: schedulers,
		Trials:     sim.ScaledTrials(*divisor, 8),
		OptMax:     *optMax,
		Seed:       *seed,
		Workers:    *workers,
	}
	switch *start {
	case "random":
		cfg.Start = sim.RandomStart
	case "bot":
		cfg.Start = sim.BOTStart
	default:
		log.Fatalf("bad -start %q, want random or bot", *start)
	}
	if cfg.Lengths, err = grid.AxisList(*lengths, 1); err != nil {
		log.Fatalf("bad -lengths: %v", err)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# %s, seed %d, trials/%d, %s\n", tape, *seed, *divisor, res.Elapsed.Round(1e6))

	switch {
	case *plot:
		taken := make(map[byte]bool)
		fallback := []byte("123456789#@%&")
		var series []textplot.Series
		for _, name := range res.AlgNames() {
			mark := name[0]
			// SORT/SLTF/SCAN collide on 'S': use the second letter,
			// then arbitrary fallbacks.
			if taken[mark] && len(name) > 1 {
				mark = name[1]
			}
			for i := 0; taken[mark] && i < len(fallback); i++ {
				mark = fallback[i]
			}
			taken[mark] = true
			s := textplot.Series{Name: name, Mark: mark}
			for _, lr := range res.Lengths {
				a := lr.Alg[name]
				if a == nil || a.Schedules == 0 {
					continue
				}
				s.X = append(s.X, float64(lr.N))
				s.Y = append(s.Y, a.PerLocate.Mean())
			}
			if len(s.X) > 0 {
				series = append(series, s)
			}
		}
		pl := textplot.Plot{
			Title:   fmt.Sprintf("mean seconds per locate, %s start (cf. paper Figure %s)", cfg.Start, map[sim.StartMode]string{sim.RandomStart: "4", sim.BOTStart: "5"}[cfg.Start]),
			XLabel:  "schedule length (log)",
			YLabel:  "s/locate",
			Width:   90,
			Height:  24,
			LogX:    true,
			Connect: true,
			Series:  series,
		}
		if err := pl.Render(w); err != nil {
			log.Fatal(err)
		}
	case *summary:
		rows, err := sim.Summary(res)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.WriteSummary(w, rows); err != nil {
			log.Fatal(err)
		}
	case *cpu:
		if err := res.WriteCPUTable(w); err != nil {
			log.Fatal(err)
		}
	default:
		if err := res.WritePerLocateTable(w); err != nil {
			log.Fatal(err)
		}
		if *stddev {
			fmt.Fprintln(w)
			if err := res.WriteStdDevTable(w); err != nil {
				log.Fatal(err)
			}
		}
	}
}
