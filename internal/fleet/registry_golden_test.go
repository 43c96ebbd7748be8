package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/hsm"
	"serpentine/internal/obs"
)

// goldenRegistryHashes pin the three registry dumps of a fixed faulty,
// cached, labeled fleet run: the SHA-256 of WriteProm, WriteJSON and
// WriteShardsJSON. Any change to which series a fleet run records, how
// their names and labels render, or how per-shard series are grouped
// moves them.
var goldenRegistryHashes = map[string]string{
	"prom":   "a52ccac9f0d0376ba4f6e1c98f6c655c1d72748cb82c6ed3303cf1d937cbcdbb",
	"json":   "2411d666b98c81a37a0085a79c30986a6d46d95c635abdf2c1bde64f66cf6f93",
	"shards": "a46fb28e85bbab26138d75ecfdecff22bd1235b71195252a2a35bf67718d4e2e",
}

// TestFleetRegistryGolden runs three shards of two drives with
// replicas, cartridge loss and drive outages, staging caches with
// prefetch, and sweep-style cell labels, and compares each dump's hash
// against its pin.
func TestFleetRegistryGolden(t *testing.T) {
	fl, err := New(StoreConfig{Shards: 3, TapeCount: 6, Objects: 32, ObjectSegments: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Stream(900, 400, 23, 6, 32, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, _, err = fl.Run(RunConfig{
		Drives:     2,
		BatchLimit: 4,
		Lifecycle: fault.LifecycleConfig{
			DriveMTTFSec: 2 * 3600, DriveMTTRSec: 600,
			CartridgeLossRate: 0.1, Seed: 42,
		},
		Cache:  hsm.Config{CapacityBytes: 16 << 20, Prefetch: true},
		Router: Affinity{},
		Seed:   5,
		Reg:    reg,
		Labels: []obs.Label{obs.L("rate", "900"), obs.L("shards", "3"), obs.L("router", "affinity")},
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	dumps := map[string]func(*bytes.Buffer) error{
		"prom":   func(b *bytes.Buffer) error { return reg.WriteProm(b) },
		"json":   func(b *bytes.Buffer) error { return reg.WriteJSON(b) },
		"shards": func(b *bytes.Buffer) error { return reg.WriteShardsJSON(b) },
	}
	for name, dump := range dumps {
		var b bytes.Buffer
		if err := dump(&b); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenRegistryHashes[name] {
			t.Errorf("%s dump drifted from its pin:\nhash %s\nwant %s", name, got, goldenRegistryHashes[name])
		}
	}
}
