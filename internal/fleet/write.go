package fleet

import (
	"fmt"
	"io"

	"serpentine/internal/grid"
)

// WriteFleet renders the fleet sweep: one block per arrival rate, one
// row per (shards, router), with the partition counters, delivered
// throughput, latency, the routing-quality counters, and the load
// imbalance (the busiest shard's share of the stream relative to a
// perfectly even deal; 1.00 is perfect balance). Fixed formatting
// keeps the table byte-deterministic.
func WriteFleet(w io.Writer, cells []Cell) error {
	for _, block := range grid.Blocks(cells, func(c Cell) float64 { return c.RatePerHour }) {
		if _, err := fmt.Fprintf(w, "# arrival rate %g/h\n%6s %-13s %6s %6s %6s %6s %8s %12s %11s %9s %6s %9s\n",
			block[0].RatePerHour, "shards", "router", "served", "failed", "reject", "shed", "IO/h",
			"mean lat (s)", "max lat (s)", "affinity%", "xshard", "imbalance"); err != nil {
			return err
		}
		for _, c := range block {
			m := c.Metrics
			ioPerHour := 0.0
			if m.Makespan > 0 {
				ioPerHour = float64(m.Served) / m.Makespan * 3600
			}
			affinity := 0.0
			if m.Offered > 0 {
				affinity = float64(m.AffinityHits) / float64(m.Offered) * 100
			}
			imbalance := 0.0
			if m.Offered > 0 && c.Shards > 0 {
				maxRouted := 0
				for _, r := range c.Routed {
					if r > maxRouted {
						maxRouted = r
					}
				}
				imbalance = float64(maxRouted) * float64(c.Shards) / float64(m.Offered)
			}
			if _, err := fmt.Fprintf(w, "%6d %-13s %6d %6d %6d %6d %8.1f %12.0f %11.0f %9.1f %6d %9.2f\n",
				c.Shards, c.Router, m.Served, m.Failed, m.Rejected, m.Shed, ioPerHour,
				m.MeanLatency, m.MaxLatency, affinity, m.CrossShardReads, imbalance); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
