// Command tapesched is the practical face of the library: give it a
// batch of segment numbers and it prints the retrieval order a
// DLT4000 should use, with the estimated execution time, optionally
// verifying the estimate by executing the schedule on the emulated
// drive.
//
//	tapesched 101000 7500 441217 312024
//	tapesched -alg AUTO -start 50000 $(seq 1000 3000 600000)
//	echo "8 15 16 23 42" | tapesched -alg OPT
//	tapesched -compare 101000 7500 441217 312024   # all algorithms
//	tapesched -execute -alg LOSS 101000 7500 441217
//	tapesched -execute -metrics prom 101000 7500   # + drive-op metrics
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tapesched: ")
	var (
		serial  = flag.Int64("serial", 1, "cartridge serial number")
		keyfile = flag.String("keyfile", "", "load the locate model from a characterization file (see cmd/characterize)")
		alg     = flag.String("alg", "LOSS", "algorithm: READ FIFO OPT SORT SLTF SLTF-C SCAN WEAVE LOSS LOSS-C LOSS-SPARSE AUTO")
		start   = flag.Int("start", 0, "initial head position (segment)")
		readLen = flag.Int("readlen", 1, "segments transferred per request")
		compare = flag.Bool("compare", false, "run every algorithm and compare estimates")
		execute = flag.Bool("execute", false, "also execute the schedule on the emulated drive")
		explain = flag.Bool("explain", false, "decompose every locate in the schedule (case, scan, read)")
		quiet   = flag.Bool("quiet", false, "print only the schedule, one segment per line")
		metrics = flag.String("metrics", "", "append estimate gauges and (with -execute) drive-op metrics: 'prom' or 'json'")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		// Dumping the still empty registry checks the format up front.
		if err := reg.WriteFormat(io.Discard, *metrics); err != nil {
			log.Fatalf("bad -metrics: %v", err)
		}
	}

	reqs, err := readRequests(flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	if len(reqs) == 0 {
		log.Fatal("no requests: pass segment numbers as arguments or on stdin")
	}

	// The locate model comes from a stored characterization when one
	// is given (the production path), otherwise from the synthesized
	// cartridge's true key points.
	var kp *geometry.KeyPointTable
	if *keyfile != "" {
		loaded, kserial, err := geometry.LoadKeyPointsFile(*keyfile)
		if err != nil {
			log.Fatal(err)
		}
		if kserial != 0 {
			*serial = kserial
		}
		kp = loaded
	}
	tape, err := geometry.Generate(geometry.DLT4000(), *serial)
	if err != nil {
		log.Fatal(err)
	}
	if kp == nil {
		kp = tape.KeyPoints()
	}
	model, err := locate.FromKeyPoints(kp)
	if err != nil {
		log.Fatal(err)
	}
	problem := &core.Problem{Start: *start, Requests: reqs, ReadLen: *readLen, Cost: model}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *compare {
		fmt.Fprintf(w, "# %d requests on %s, head at %d\n", len(reqs), tape, *start)
		fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "algorithm", "total s", "s/request", "IO/hour")
		for _, name := range []string{"FIFO", "SORT", "SLTF", "SCAN", "WEAVE", "LOSS", "LOSS-SPARSE", "READ", "AUTO"} {
			s, err := core.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			if opt, ok := s.(core.OPT); ok && len(reqs) > opt.Limit() {
				continue
			}
			plan, err := s.Schedule(problem)
			if err != nil {
				log.Fatal(err)
			}
			est := plan.Estimate(problem)
			fmt.Fprintf(w, "%-12s %12.1f %12.2f %12.1f\n",
				s.Name(), est.Total(), est.Total()/float64(len(reqs)),
				3600*float64(len(reqs))/est.Total())
		}
		if len(reqs) <= 12 {
			s, _ := core.ByName("OPT")
			plan, err := s.Schedule(problem)
			if err != nil {
				log.Fatal(err)
			}
			est := plan.Estimate(problem)
			fmt.Fprintf(w, "%-12s %12.1f %12.2f %12.1f\n",
				"OPT", est.Total(), est.Total()/float64(len(reqs)),
				3600*float64(len(reqs))/est.Total())
		}
		return
	}

	s, err := core.ByName(*alg)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := s.Schedule(problem)
	if err != nil {
		log.Fatal(err)
	}
	est := plan.Estimate(problem)
	algLabel := obs.L("alg", s.Name())
	reg.Gauge("estimate_total_seconds", algLabel).Set(est.Total())
	reg.Gauge("estimate_locate_seconds", algLabel).Set(est.Locate)
	reg.Gauge("estimate_read_seconds", algLabel).Set(est.Read)
	reg.Counter("requests_total", algLabel).Add(int64(len(reqs)))

	if *quiet {
		for _, lbn := range plan.Order {
			fmt.Fprintln(w, lbn)
		}
		return
	}
	fmt.Fprintf(w, "# %s schedule for %d requests on %s, head at %d\n", s.Name(), len(reqs), tape, *start)
	if plan.WholeTape {
		fmt.Fprintf(w, "# whole-tape sequential pass; requests retrieved in segment order\n")
	}
	fmt.Fprintf(w, "%6s %10s %6s %8s %10s\n", "#", "segment", "track", "section", "locate_s")
	head := *start
	for i, lbn := range plan.Order {
		pl := tape.View().Place(lbn)
		fmt.Fprintf(w, "%6d %10d %6d %8d %10.2f\n", i+1, lbn, pl.Track, pl.PhysSection, model.LocateTime(head, lbn))
		if *explain {
			fmt.Fprintf(w, "       %s\n", model.Explain(head, lbn))
		}
		head = lbn + *readLen
		if head >= model.Segments() {
			head = model.Segments() - 1
		}
	}
	fmt.Fprintf(w, "# estimated: total %.1f s, positioning %.1f s, transfer %.1f s, %.2f s/request\n",
		est.Total(), est.Locate, est.Read, est.Total()/float64(len(reqs)))

	if *execute {
		dev := drive.New(tape)
		if reg != nil {
			// Fold every drive primitive into per-op counters and
			// latency histograms as the schedule executes.
			dev.AttachTrace(func(ev drive.Event) {
				op := obs.L("op", ev.Op.String())
				reg.Counter("drive_ops_total", op).Add(1)
				reg.Histogram("drive_op_seconds", op).Observe(ev.ElapsedSec)
				if ev.Err != "" {
					reg.Counter("drive_op_errors_total", op, obs.L("err", ev.Err)).Add(1)
				}
			})
		}
		if _, err := dev.Locate(*start); err != nil {
			log.Fatal(err)
		}
		dev.ResetClock()
		var measured float64
		if plan.WholeTape {
			measured, err = dev.ReadEntireTape()
		} else {
			measured, err = dev.ExecuteOrder(plan.Order, *readLen)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "# measured on emulated drive: %.1f s (estimate off by %+.2f%%)\n",
			measured, (est.Total()-measured)/measured*100)
		reg.Gauge("measured_seconds", algLabel).Set(measured)
	}
	if reg != nil {
		fmt.Fprintln(w, "# metrics")
		if err := reg.WriteFormat(w, *metrics); err != nil {
			log.Fatal(err)
		}
	}
}

// readRequests parses segment numbers from args, or stdin when no
// args are given (whitespace-separated).
func readRequests(args []string) ([]int, error) {
	var fields []string
	if len(args) > 0 {
		fields = args
	} else {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		sc.Split(bufio.ScanWords)
		for sc.Scan() {
			fields = append(fields, sc.Text())
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	reqs := make([]int, 0, len(fields))
	for _, f := range fields {
		for _, part := range strings.Split(f, ",") {
			if part == "" {
				continue
			}
			n, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("bad segment number %q", part)
			}
			reqs = append(reqs, n)
		}
	}
	return reqs, nil
}
