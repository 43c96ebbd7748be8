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

// goldenScoresHash pins the health tracker's final state on a fixed
// faulty run: the SHA-256 of its Scores() sorted by key, each key's
// bytes followed by its score's little-endian float bits. It was
// captured while the tracker was still fed live during the run, so it
// also pins that the post-run fill leaves the same state. Any change to
// which events are scored, in what order, or how the tracker is keyed
// moves it.
const goldenScoresHash = "dd88d6d96d679f3fbbfd32e3e42fa95b05ea2e6b33ff626516cc391cc2c98615"

// goldenHealthRun is the fixed faulty run the pin is taken on: four
// shards of two drives with replicas, cartridge loss and drive
// outages, staging caches with prefetch, and both event consumers
// armed.
func goldenHealthRun(t *testing.T) *obs.HealthTracker {
	t.Helper()
	fl, err := New(StoreConfig{Shards: 4, TapeCount: 8, Objects: 32, ObjectSegments: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(900, 600, 17, 8, 32, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	health := obs.NewHealthTracker()
	_, _, err = fl.Run(RunConfig{
		Drives:     2,
		BatchLimit: 4,
		Lifecycle: fault.LifecycleConfig{
			DriveMTTFSec: 2 * 3600, DriveMTTRSec: 600,
			CartridgeLossRate: 0.1, Seed: 42,
		},
		Cache:  hsm.Config{CapacityBytes: 16 << 20, Prefetch: true},
		Router: Affinity{},
		Seed:   3,
		Events: obs.NewEventRing(len(stream)),
		Health: health,
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	return health
}

// TestHealthProbeGolden replays the fixed run and compares the
// tracker's final scores against the pin.
func TestHealthProbeGolden(t *testing.T) {
	scores := goldenHealthRun(t).Scores()
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	degraded := 0
	for _, k := range keys {
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(scores[k]))
		if scores[k] < 1 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("the golden run degraded no tracker key; it no longer exercises the health fill")
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != goldenScoresHash {
		t.Fatalf("health tracker drifted from its pin:\nscores hash %s\nwant        %s", got, goldenScoresHash)
	}
}
