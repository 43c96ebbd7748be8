package fleet

import (
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// benchRequests is the stream length of one benchmarked fleet run:
// long enough that the cache reaches steady eviction and the event
// plane carries thousands of records, short enough for -benchtime 20x.
const benchRequests = 4000

// benchFleet is the perfbench fleet workload's shape at a shorter
// stream: 8 shards of 2 drives over 16 cartridges of 128 one-megabyte
// objects with 2 replicas, Zipf picks with mount locality 0.3 at the
// nominal 300 requests per hour.
func benchFleet(b *testing.B, shards, tapes int, replicas int) (*Fleet, []tertiary.Request) {
	b.Helper()
	fl, err := New(StoreConfig{Shards: shards, TapeCount: tapes, Objects: 128, ObjectSegments: 32, Replicas: replicas})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := Stream(300, benchRequests, 1000010, tapes, 128, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	return fl, stream
}

// benchAffinityConfig is the perfbench fleet rung's serving config:
// affinity routing, 32 MB LRU staging caches with prefetch and
// lifecycle faults on every shard.
func benchAffinityConfig(events *obs.EventRing, health *obs.HealthTracker) RunConfig {
	return RunConfig{
		Drives:     2,
		BatchLimit: 16,
		Lifecycle: fault.LifecycleConfig{
			DriveMTTFSec: 48 * 3600, DriveMTTRSec: 600,
			CartridgeLossRate: 0.02, Seed: 5,
		},
		Cache:  hsm.Config{CapacityBytes: 32 << 20, Prefetch: true},
		Router: Affinity{},
		Seed:   1000010,
		Events: events,
		Health: health,
	}
}

func runFleetBench(b *testing.B, fl *Fleet, stream []tertiary.Request, cfg func() RunConfig) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fl.Run(cfg(), stream); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkFleetSweepCell measures one fleet sweep cell at the two
// ends of the routing layer: a 1-shard pass-through fleet (the routing
// tier's identical-output configuration over one library) and the
// 8-shard affinity fleet with caches, faults and the event plane armed.
func BenchmarkFleetSweepCell(b *testing.B) {
	b.Run("shards=1/pass-through", func(b *testing.B) {
		fl, stream := benchFleet(b, 1, 4, 1)
		runFleetBench(b, fl, stream, func() RunConfig {
			return RunConfig{Drives: 2, BatchLimit: 16, Router: PassThrough{}, Seed: 1000010}
		})
	})
	b.Run("shards=8/affinity", func(b *testing.B) {
		fl, stream := benchFleet(b, 8, 16, 2)
		runFleetBench(b, fl, stream, func() RunConfig {
			return benchAffinityConfig(obs.NewEventRing(len(stream)), obs.NewHealthTracker())
		})
	})
}

// BenchmarkEventEmission isolates the wide-event plane on the 8-shard
// affinity fleet: no ring against an armed ring, each with and without
// a live health tracker. Outputs are identical across the four; only
// host time differs.
func BenchmarkEventEmission(b *testing.B) {
	fl, stream := benchFleet(b, 8, 16, 2)
	for _, c := range []struct {
		name           string
		events, health bool
	}{
		{"ring=nil/health=nil", false, false},
		{"ring=armed/health=nil", true, false},
		{"ring=nil/health=armed", false, true},
		{"ring=armed/health=armed", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			runFleetBench(b, fl, stream, func() RunConfig {
				var ring *obs.EventRing
				var health *obs.HealthTracker
				if c.events {
					ring = obs.NewEventRing(len(stream))
				}
				if c.health {
					health = obs.NewHealthTracker()
				}
				return benchAffinityConfig(ring, health)
			})
		})
	}
}
