package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
)

// Golden pins for the live health feed, captured before the feed and
// the routing path were rewritten: the SHA-256 of every (ordinal,
// shard, Candidate.Health) probe a recording router sees on a fixed
// faulty, cached, event-armed run, and of the tracker's final Scores()
// sorted by key. Any change to which events the feed releases, when it
// releases them, or how the tracker is keyed moves one of these.
const (
	goldenHealthProbes = 969
	goldenProbeHash    = "fe95eae1250c0dd0f7c40e7109d99a170789e0c00737c7b2887422b7d86bec5e"
	goldenScoresHash   = "dd88d6d96d679f3fbbfd32e3e42fa95b05ea2e6b33ff626516cc391cc2c98615"
)

// probeRecorder is an Affinity router that records every candidate's
// health probe with the request ordinal and shard it was scored for.
type probeRecorder struct {
	h   sha256Writer
	n   int
	low int // probes below 1
}

type sha256Writer struct{ buf []byte }

func (w *sha256Writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *sha256Writer) sum() string {
	s := sha256.Sum256(w.buf)
	return hex.EncodeToString(s[:])
}

func (r *probeRecorder) Name() string { return "probe-recorder" }

func (r *probeRecorder) Score(ordinal, shards int, cands []Candidate, scores []float64) {
	for _, c := range cands {
		r.h.u64(uint64(ordinal))
		r.h.u64(uint64(c.Shard))
		r.h.u64(math.Float64bits(c.Health))
		r.n++
		if c.Health < 1 {
			r.low++
		}
	}
	Affinity{}.Score(ordinal, shards, cands, scores)
}

// goldenHealthRun is the fixed faulty run the pins are taken on: four
// shards of two drives with replicas, cartridge loss and drive
// outages, staging caches with prefetch, and both event consumers
// armed.
func goldenHealthRun(t *testing.T) (*probeRecorder, *obs.HealthTracker) {
	t.Helper()
	fl, err := New(StoreConfig{Shards: 4, TapeCount: 8, Objects: 32, ObjectSegments: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(900, 600, 17, 8, 32, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rec := &probeRecorder{}
	health := obs.NewHealthTracker()
	_, _, err = fl.Run(RunConfig{
		Drives:     2,
		BatchLimit: 4,
		Lifecycle: fault.LifecycleConfig{
			DriveMTTFSec: 2 * 3600, DriveMTTRSec: 600,
			CartridgeLossRate: 0.1, Seed: 42,
		},
		Cache:  hsm.Config{CapacityBytes: 16 << 20, Prefetch: true},
		Router: rec,
		Seed:   3,
		Events: obs.NewEventRing(len(stream)),
		Health: health,
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	return rec, health
}

// TestHealthProbeGolden replays the fixed run and compares the probe
// sequence and the tracker's final scores against the pins.
func TestHealthProbeGolden(t *testing.T) {
	rec, health := goldenHealthRun(t)
	scores := health.Scores()
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sw sha256Writer
	degraded := 0
	for _, k := range keys {
		sw.buf = append(sw.buf, k...)
		sw.u64(math.Float64bits(scores[k]))
		if scores[k] < 1 {
			degraded++
		}
	}
	if degraded == 0 || rec.low == 0 {
		t.Fatal("the golden run degraded no tracker key or probe; it no longer exercises the feed")
	}
	if rec.n != goldenHealthProbes || rec.h.sum() != goldenProbeHash || sw.sum() != goldenScoresHash {
		t.Fatalf("health feed drifted from its pins:\nprobes %d, want %d\nprobe hash  %s\nwant        %s\nscores hash %s\nwant        %s",
			rec.n, goldenHealthProbes, rec.h.sum(), goldenProbeHash, sw.sum(), goldenScoresHash)
	}
}
