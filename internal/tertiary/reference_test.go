package tertiary

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/drive"
	"serpentine/internal/geometry"
	"serpentine/internal/workload"
)

// This file carries a copy of the seed implementation's run loop, so
// the rebuilt event-driven library can be pinned to it: on a
// fault-free single-drive run with a duplicate-free stream, the new
// loop must produce the same served set, completion times, makespan
// and byte counts. Two deliberate deviations from the seed are NOT
// replicated here: the size-class service order breaks ties
// deterministically (count desc, then extent length asc — the seed
// left ties to map iteration order), and completion-time sums may
// differ by float association, which is why times are compared within
// 1e-6 rather than bit-exactly.

// refDriveState mirrors the seed's driveState, sentinel and all.
type refDriveState struct {
	id      int
	clock   float64
	mounted int64
	dev     *drive.Drive
	busy    float64
}

// refRun is the seed implementation's Run.
func refRun(l *Library, requests []Request) ([]Completion, Metrics, error) {
	queue := make([]pending, 0, len(requests))
	for _, r := range requests {
		o, ok := l.catalog.Get(r.ObjectID)
		if !ok {
			return nil, Metrics{}, fmt.Errorf("tertiary: request for unknown object %q", r.ObjectID)
		}
		queue = append(queue, pending{req: r, obj: o})
	}
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].req.Arrival < queue[j].req.Arrival })

	drives := make([]*refDriveState, l.cfg.Drives)
	for i := range drives {
		drives[i] = &refDriveState{id: i}
	}

	var (
		done    []Completion
		metrics Metrics
	)
	for len(queue) > 0 {
		d := drives[0]
		for _, cand := range drives[1:] {
			if cand.clock < d.clock {
				d = cand
			}
		}
		now := d.clock
		if queue[0].req.Arrival > now {
			now = queue[0].req.Arrival
		}
		visible := 0
		for visible < len(queue) && queue[visible].req.Arrival <= now {
			visible++
		}

		serial := refPickTape(queue[:visible])
		batch, rest := refSplitBatch(queue, visible, serial, l.cfg.BatchLimit)
		queue = rest

		completions, busy, err := refServeBatch(l, d, serial, now, batch)
		if err != nil {
			return nil, Metrics{}, err
		}
		done = append(done, completions...)
		d.clock = now + busy
		d.busy += busy
		metrics.Mounts++
		metrics.Batches++
	}

	for _, d := range drives {
		if d.clock > metrics.Makespan {
			metrics.Makespan = d.clock
		}
		metrics.DriveBusySec += d.busy
	}
	var latSum float64
	for _, c := range done {
		metrics.Served++
		lat := c.Latency()
		latSum += lat
		if lat > metrics.MaxLatency {
			metrics.MaxLatency = lat
		}
		metrics.BytesRead += int64(c.Object.Len()) * l.cfg.Profile.SegmentBytes
	}
	if metrics.Served > 0 {
		metrics.MeanLatency = latSum / float64(metrics.Served)
	}
	sort.SliceStable(done, func(i, j int) bool { return done[i].Done < done[j].Done })
	return done, metrics, nil
}

func refPickTape(visible []pending) int64 {
	count := make(map[int64]int)
	oldest := make(map[int64]float64)
	for _, p := range visible {
		count[p.obj.Tape]++
		if t, ok := oldest[p.obj.Tape]; !ok || p.req.Arrival < t {
			oldest[p.obj.Tape] = p.req.Arrival
		}
	}
	best := int64(0)
	for serial := range count {
		if best == 0 {
			best = serial
			continue
		}
		switch {
		case count[serial] > count[best]:
			best = serial
		case count[serial] == count[best] && oldest[serial] < oldest[best]:
			best = serial
		case count[serial] == count[best] && oldest[serial] == oldest[best] && serial < best:
			best = serial
		}
	}
	return best
}

func refSplitBatch(queue []pending, visible int, serial int64, limit int) (batch, rest []pending) {
	for i, p := range queue {
		if i < visible && p.obj.Tape == serial && (limit <= 0 || len(batch) < limit) {
			batch = append(batch, p)
		} else {
			rest = append(rest, p)
		}
	}
	return batch, rest
}

func refServeBatch(l *Library, d *refDriveState, serial int64, start float64, batch []pending) ([]Completion, float64, error) {
	busy := 0.0
	if d.mounted != serial {
		if d.mounted != 0 {
			busy += d.dev.Rewind() + l.cfg.UnmountSec
		}
		busy += l.cfg.MountSec
		d.dev = drive.New(l.tapes[l.index[serial]])
		d.mounted = serial
	}
	d.dev.ResetClock()

	byLen := make(map[int][]pending)
	for _, p := range batch {
		byLen[p.obj.Len()] = append(byLen[p.obj.Len()], p)
	}
	var lens []int
	for k := range byLen {
		lens = append(lens, k)
	}
	// Deterministic deviation from the seed: ties sorted by length.
	sort.Slice(lens, func(i, j int) bool {
		if len(byLen[lens[i]]) != len(byLen[lens[j]]) {
			return len(byLen[lens[i]]) > len(byLen[lens[j]])
		}
		return lens[i] < lens[j]
	})

	model := l.models[l.index[serial]]
	var completions []Completion
	for _, rl := range lens {
		group := byLen[rl]
		reqs := make([]int, len(group))
		byStart := make(map[int][]pending)
		for i, p := range group {
			reqs[i] = p.obj.Start
			byStart[p.obj.Start] = append(byStart[p.obj.Start], p)
		}
		prob := &core.Problem{Start: d.dev.Position(), Requests: reqs, ReadLen: rl, Cost: model}
		plan, err := l.sched.Schedule(prob)
		if err != nil {
			return nil, 0, err
		}
		if plan.WholeTape {
			elapsed, err := d.dev.ReadEntireTape()
			if err != nil {
				return nil, 0, err
			}
			for _, p := range group {
				completions = append(completions, Completion{
					Request: p.req, Object: p.obj, Done: start + busy + elapsed, DriveID: d.id,
				})
			}
			busy += elapsed
			continue
		}
		for _, lbn := range plan.Order {
			lt, err := d.dev.Locate(lbn)
			if err != nil {
				return nil, 0, err
			}
			rt, err := d.dev.Read(rl)
			if err != nil {
				return nil, 0, err
			}
			busy += lt + rt
			ps := byStart[lbn]
			p := ps[0]
			byStart[lbn] = ps[1:]
			completions = append(completions, Completion{
				Request: p.req, Object: p.obj, Done: start + busy, DriveID: d.id,
			})
		}
	}
	return completions, busy, nil
}

// equivStream builds a duplicate-free request stream over the catalog
// (duplicates are the seed's bug 1; with them the physical op
// sequences legitimately differ).
func equivStream(cfg Config, perTape, n int, spreadSec float64, seed int64) []Request {
	var ids []string
	for _, serial := range cfg.Tapes {
		for i := 0; i < perTape; i++ {
			ids = append(ids, fmt.Sprintf("t%d/o%d", serial, i))
		}
	}
	if n > len(ids) {
		n = len(ids)
	}
	arr, err := workload.PoissonArrivals(1, n, seed)
	if err != nil {
		panic(err)
	}
	reqs := make([]Request, n)
	for i := 0; i < n; i++ {
		reqs[i] = Request{
			ObjectID: ids[(i*13)%len(ids)],
			Arrival:  arr[i] / 1 * spreadSec / float64(n),
		}
	}
	return reqs
}

// TestEquivalenceWithSeedImplementation pins the rebuilt fault-free
// single-drive library to the seed implementation: same catalog,
// requests and seed give the same served set, completion times and
// makespan. (Mount counts intentionally differ — counting them per
// batch was bug 2.)
func TestEquivalenceWithSeedImplementation(t *testing.T) {
	cases := []struct {
		name    string
		perTape int
		limit   int
		spread  float64
		mixed   bool
	}{
		{"all-at-once-unlimited", 24, 0, 0, false},
		{"all-at-once-limit-5", 24, 5, 0, false},
		{"spread-arrivals", 24, 8, 5000, false},
		{"mixed-sizes", 12, 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(1)
			cfg.BatchLimit = tc.limit
			var cat *Catalog
			if tc.mixed {
				cat = NewCatalog()
				for _, serial := range cfg.Tapes {
					tape := geometry.MustGenerate(cfg.Profile, serial)
					stride := tape.Segments() / tc.perTape
					for i := 0; i < tc.perTape; i++ {
						segs := 1
						if i%3 == 0 {
							segs = 4
						}
						if err := cat.Put(Object{
							ID:       fmt.Sprintf("t%d/o%d", serial, i),
							Tape:     serial,
							Start:    i * stride,
							Segments: segs,
						}); err != nil {
							t.Fatal(err)
						}
					}
				}
			} else {
				cat = smallCatalog(t, cfg, tc.perTape)
			}
			reqs := equivStream(cfg, tc.perTape, 2*tc.perTape, tc.spread, 42)

			refLib, err := New(cfg, cat)
			if err != nil {
				t.Fatal(err)
			}
			wantDone, wantM, err := refRun(refLib, reqs)
			if err != nil {
				t.Fatal(err)
			}

			newLib, err := New(cfg, cat)
			if err != nil {
				t.Fatal(err)
			}
			gotDone, gotM, err := newLib.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}

			if len(gotDone) != len(wantDone) {
				t.Fatalf("served %d, seed served %d", len(gotDone), len(wantDone))
			}
			for i := range gotDone {
				g, w := gotDone[i], wantDone[i]
				if g.ObjectID != w.ObjectID || g.Arrival != w.Arrival || g.DriveID != w.DriveID {
					t.Fatalf("completion %d: got %+v, seed %+v", i, g, w)
				}
				if math.Abs(g.Done-w.Done) > 1e-6 {
					t.Fatalf("completion %d (%s): done %.9f, seed %.9f", i, g.ObjectID, g.Done, w.Done)
				}
			}
			if gotM.Served != wantM.Served || gotM.Batches != wantM.Batches || gotM.BytesRead != wantM.BytesRead {
				t.Fatalf("metrics diverge: got %+v\nseed %+v", gotM, wantM)
			}
			if math.Abs(gotM.Makespan-wantM.Makespan) > 1e-6 {
				t.Fatalf("makespan %.9f, seed %.9f", gotM.Makespan, wantM.Makespan)
			}
			if gotM.Failed != 0 || gotM.Rejected != 0 {
				t.Fatalf("fault-free unbounded run lost requests: %+v", gotM)
			}
		})
	}
}
