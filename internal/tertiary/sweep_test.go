package tertiary

import (
	"bytes"
	"slices"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/obs"
)

// tinySweep keeps sweep tests fast: the Tiny geometry, a small store,
// a short stream.
func tinySweep() SweepConfig {
	return SweepConfig{
		Profile:        geometry.Tiny(),
		TapeCount:      2,
		Objects:        8,
		ObjectSegments: 1,
		RatesPerHour:   []float64{3600},
		DriveCounts:    []int{1},
		BatchLimits:    []int{1, 8, 0},
		Requests:       40,
		Seed:           7,
	}
}

func TestSweepTradeoff(t *testing.T) {
	cells, err := Sweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		if c.Metrics.Served != 40 {
			t.Fatalf("limit %d served %d of 40", c.BatchLimit, c.Metrics.Served)
		}
	}
	// Under saturation, throughput must grow with the batch limit:
	// that is the scheduling gain the system exists for.
	if !(cells[0].Metrics.IOsPerHour() < cells[1].Metrics.IOsPerHour() &&
		cells[1].Metrics.IOsPerHour() <= cells[2].Metrics.IOsPerHour()+1) {
		t.Fatalf("throughput not improving with batch limit: %.1f, %.1f, %.1f",
			cells[0].Metrics.IOsPerHour(), cells[1].Metrics.IOsPerHour(), cells[2].Metrics.IOsPerHour())
	}
	// And mount traffic must fall: batching exists to amortize the
	// robot exchange.
	if cells[0].Metrics.Mounts < cells[2].Metrics.Mounts {
		t.Fatalf("mounts not improving with batching: %d vs %d",
			cells[0].Metrics.Mounts, cells[2].Metrics.Mounts)
	}
}

// TestSweepMoreDrivesHelp pins the drive-pool dimension: under a
// saturating stream over two cartridges, two transports finish sooner
// than one.
func TestSweepMoreDrivesHelp(t *testing.T) {
	cfg := tinySweep()
	cfg.DriveCounts = []int{1, 2}
	cfg.BatchLimits = []int{0}
	cells, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells", len(cells))
	}
	if cells[1].Metrics.Makespan >= cells[0].Metrics.Makespan {
		t.Fatalf("2 drives (%.0f s) not faster than 1 (%.0f s)",
			cells[1].Metrics.Makespan, cells[0].Metrics.Makespan)
	}
}

// TestSweepDeterministicAcrossWorkers is the byte-determinism
// contract cmd/library and the CI determinism job rely on: the
// rendered table and the merged metrics dump are identical at any
// worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) (string, string) {
		cfg := tinySweep()
		cfg.DriveCounts = []int{1, 2}
		cfg.Workers = workers
		reg := obs.NewRegistry()
		cfg.Reg = reg
		cells, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var table, prom bytes.Buffer
		if err := WriteLibrary(&table, cells); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		return table.String(), prom.String()
	}
	t1, p1 := render(1)
	t3, p3 := render(3)
	if t1 != t3 {
		t.Fatalf("table differs between 1 and 3 workers:\n--- 1 worker\n%s\n--- 3 workers\n%s", t1, t3)
	}
	if p1 != p3 {
		t.Fatal("merged metrics dump differs between 1 and 3 workers")
	}
}

func TestSweepValidates(t *testing.T) {
	cfg := tinySweep()
	// 8 objects of 200 segments cannot fit a Tiny tape.
	cfg.ObjectSegments = 200
	if _, err := Sweep(cfg); err == nil {
		t.Fatal("overflowing store accepted")
	}
}

// TestBuildStoreLayout checks the store layout over shard counts,
// replication factors and object counts: every catalog and placement
// extent lies inside its cartridge, no two extents on one cartridge
// overlap, and each object's copies sit on the cartridges its copy
// list names, the first copy on a shard being that shard's catalog
// entry.
func TestBuildStoreLayout(t *testing.T) {
	const tapeCount, objSegs = 4, 32
	for _, shards := range []int{1, 3} {
		for _, replicas := range []int{1, 2, 3} {
			for _, objects := range []int{64, 512} {
				st, err := BuildStore(geometry.DLT4000(), shards, tapeCount, objects, objSegs, replicas)
				if err != nil {
					t.Fatalf("S=%d R=%d objects=%d: %v", shards, replicas, objects, err)
				}
				type extent struct {
					id         string
					start, end int
				}
				byTape := make(map[int64][]extent)
				for s, lib := range st.Shards {
					for _, o := range lib.Objects() {
						byTape[o.Tape] = append(byTape[o.Tape], extent{o.ID, o.Start, o.Start + o.Len()})
						for _, r := range lib.cfg.Placement.Get(o.ID) {
							byTape[r.Tape] = append(byTape[r.Tape], extent{r.ID, r.Start, r.Start + r.Len()})
						}
					}
					for _, serial := range lib.Tapes() {
						if int(serial-3000)%shards != s {
							t.Fatalf("S=%d: tape %d dealt to shard %d", shards, serial, s)
						}
					}
				}
				total := 0
				for serial, exts := range byTape {
					total += len(exts)
					tape, err := geometry.Generate(geometry.DLT4000(), serial)
					if err != nil {
						t.Fatal(err)
					}
					slices.SortFunc(exts, func(a, b extent) int { return a.start - b.start })
					for i, e := range exts {
						if e.start < 0 || e.end > tape.Segments() {
							t.Fatalf("S=%d R=%d objects=%d: %s [%d,%d) outside tape %d of %d segments",
								shards, replicas, objects, e.id, e.start, e.end, serial, tape.Segments())
						}
						if i > 0 && e.start < exts[i-1].end {
							t.Fatalf("S=%d R=%d objects=%d: tape %d: %s [%d,%d) overlaps %s [%d,%d)",
								shards, replicas, objects, serial, e.id, e.start, e.end,
								exts[i-1].id, exts[i-1].start, exts[i-1].end)
						}
					}
				}
				if want := tapeCount * objects * replicas; total != want {
					t.Fatalf("S=%d R=%d objects=%d: %d extents, want %d", shards, replicas, objects, total, want)
				}
				for tp := range tapeCount {
					for o := range objects {
						id := SweepObjectID(tp, o)
						seen := make(map[int]bool)
						for k, c := range st.Copies(tp*objects + o) {
							lib := st.Shards[c.Shard]
							serial := int64(3000 + (tp+k)%tapeCount)
							if lib.Cartridge(serial) != c.Cartridge {
								t.Fatalf("%s copy %d: shard %d cartridge %d, want tape %d", id, k, c.Shard, c.Cartridge, serial)
							}
							if !seen[c.Shard] {
								if o, ok := lib.catalog.Get(id); !ok || o.Tape != serial {
									t.Fatalf("%s copy %d is not shard %d's catalog entry", id, k, c.Shard)
								}
							}
							seen[c.Shard] = true
						}
					}
				}
			}
		}
	}
}
