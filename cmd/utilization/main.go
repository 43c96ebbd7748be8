// Command utilization regenerates Figure 7 of the paper: the family
// of curves giving, for each schedule length, the per-request
// transfer size at which the DLT4000 reaches 25%, 33%, 50%, 75% and
// 90% of its 1.5 MB/s sequential bandwidth.
//
//	utilization
//	utilization -alg SLTF -targets 0.5,0.9
//
// The headline reading from the paper holds: solitary I/Os need
// 50-100 MB transfers for good utilization, while a schedule of 10
// requests reaches disk-like behaviour at ~30 MB, and longer
// schedules at 10-25 MB.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"serpentine/internal/core"
	"serpentine/internal/geometry"
	"serpentine/internal/grid"
	"serpentine/internal/locate"
	"serpentine/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("utilization: ")
	var (
		serial  = flag.Int64("serial", 1, "cartridge serial number")
		alg     = flag.String("alg", "LOSS", "scheduling algorithm the curves assume")
		divisor = flag.Int("divisor", 500, "divide the paper's trial counts by this")
		seed    = flag.Int64("seed", 12345, "experiment seed")
		targets = flag.String("targets", "", "comma-separated utilization fractions (default 0.25,0.33,0.5,0.75,0.9)")
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
	sched, err := core.ByName(*alg)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := grid.AxisList(*targets, 0.0)
	if err != nil {
		log.Fatalf("bad -targets: %v", err)
	}

	res, err := sim.Run(sim.Config{
		Model:      model,
		Schedulers: []core.Scheduler{sched},
		Trials:     sim.ScaledTrials(*divisor, 8),
		Start:      sim.RandomStart,
		Seed:       *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	curves, err := sim.UtilizationCurves(res, sched.Name(), tape.Params().TransferRateBytesPerSec(), ts)
	if err != nil {
		log.Fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# %s, %s scheduling, %.2f MB/s sequential rate\n",
		tape, sched.Name(), tape.Params().TransferRateBytesPerSec()/1e6)
	if err := sim.WriteUtilization(w, curves); err != nil {
		log.Fatal(err)
	}
}
