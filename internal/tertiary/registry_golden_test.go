package tertiary

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/obs"
)

// goldenLibraryHashes pin the registry dumps of a fixed faulty,
// replicated, traced library run: the SHA-256 of WriteProm and
// WriteJSON. Any change to which series a run records (the drive
// trace hook's per-op and per-error series, the lazily resolved
// per-tape and per-event handles), how they are labeled, or what they
// count moves them.
var goldenLibraryHashes = map[string]string{
	"prom": "ee633a7ec53f37aa0d32dc497909837b31c970887e4b6b37c9dab69955d20e88",
	"json": "102b9efbfe9efdb06ffbfd08e65500b82894bbc775211dcc26a665730af08481",
}

// TestLibraryRegistryGolden runs two drives over two replicated
// cartridges with media faults, drive outages, robot stalls, cartridge
// loss, bad spots and a bounded queue, traced into a live trace, and
// compares each registry dump's hash against its pin.
func TestLibraryRegistryGolden(t *testing.T) {
	cfg := smallCfg(2)
	cfg.QueueCap = 6
	cfg.Faults = fault.Config{TransientRate: 0.05, OvershootRate: 0.05, LostRate: 0.01, Seed: 3}
	cfg.Lifecycle = fault.LifecycleConfig{
		DriveMTTFSec:      900,
		DriveMTTRSec:      240,
		RobotStallRate:    0.2,
		CartridgeLossRate: 0.1,
		BadSpotRate:       0.5,
		Seed:              13,
	}
	pl := NewPlacement()
	cat := NewCatalog()
	for ti, serial := range cfg.Tapes {
		tape := geometry.MustGenerate(cfg.Profile, serial)
		stride := tape.Segments() / 4
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("t%d/o%d", serial, i)
			if err := cat.Put(Object{ID: id, Tape: serial, Start: i * stride}); err != nil {
				t.Fatal(err)
			}
			other := cfg.Tapes[(ti+1)%len(cfg.Tapes)]
			if err := pl.Put(id, Object{Tape: other, Start: i*stride + stride/2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg.Placement = pl
	reg := obs.NewRegistry()
	cfg.Reg = reg
	cfg.Labels = []obs.Label{obs.L("rate", "60"), obs.L("drives", "2")}
	tracer := obs.NewTracer(1 << 14)
	cfg.SpanTrace = tracer.StartTrace()
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lib.Run(lifecycleStream(160, 20)); err != nil {
		t.Fatal(err)
	}
	if tracer.Total() == 0 {
		t.Fatal("armed trace recorded no spans")
	}
	dumps := map[string]func(*bytes.Buffer) error{
		"prom": func(b *bytes.Buffer) error { return reg.WriteProm(b) },
		"json": func(b *bytes.Buffer) error { return reg.WriteJSON(b) },
	}
	for name, dump := range dumps {
		var b bytes.Buffer
		if err := dump(&b); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenLibraryHashes[name] {
			t.Errorf("%s dump drifted from its pin:\nhash %s\nwant %s", name, got, goldenLibraryHashes[name])
		}
	}
}
