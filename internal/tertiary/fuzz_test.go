package tertiary

import (
	"fmt"
	"testing"

	"serpentine/internal/geometry"
)

// FuzzLibraryBatcher drives the library event loop with arbitrary
// request streams, batch limits and queue caps, and checks
// conservation: every admitted request completes exactly once, and the
// robot/mount ledgers stay consistent. The catalog includes a
// serial-0 cartridge so the sentinel regression (bug 3) stays covered.
func FuzzLibraryBatcher(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x12, 0xa3, 0x34, 0xc5}, byte(0), byte(0))
	f.Add([]byte{0x01, 0x01, 0x01, 0x01}, byte(1), byte(0))
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x3c}, byte(5), byte(2))
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}, byte(3), byte(4))

	profile := geometry.Tiny()
	serials := []int64{0, 101}
	cfg := Config{Profile: profile, Tapes: serials, Drives: 2}
	cat := NewCatalog()
	const perTape = 8
	for _, serial := range serials {
		tape := geometry.MustGenerate(profile, serial)
		stride := tape.Segments() / perTape
		for i := 0; i < perTape; i++ {
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
				f.Fatal(err)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, limit, queueCap byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		var (
			reqs    []Request
			arrival float64
		)
		for _, b := range data {
			arrival += float64(b >> 4)
			reqs = append(reqs, Request{
				ObjectID: fmt.Sprintf("t%d/o%d", serials[b&1], int(b>>1)%perTape),
				Arrival:  arrival,
			})
		}

		c := cfg
		c.BatchLimit = int(limit % 20)
		c.QueueCap = int(queueCap)
		lib, err := New(c, cat)
		if err != nil {
			t.Fatal(err)
		}
		done, m, err := lib.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}

		// Conservation: admitted or rejected, never lost or duplicated.
		if m.Served+m.Failed+m.Rejected != len(reqs) {
			t.Fatalf("conservation broken: served %d + failed %d + rejected %d != %d requests",
				m.Served, m.Failed, m.Rejected, len(reqs))
		}
		if m.Failed != 0 {
			t.Fatalf("fault-free run failed %d requests", m.Failed)
		}
		if c.QueueCap == 0 && m.Rejected != 0 {
			t.Fatalf("unbounded queue rejected %d requests", m.Rejected)
		}
		if len(done) != m.Served {
			t.Fatalf("%d completions for %d served", len(done), m.Served)
		}
		// Duplicate stream entries are legal and each copy completes,
		// so compare completion multiplicity per (object, arrival)
		// against the stream rather than demanding uniqueness.
		offered := make(map[Request]int)
		for _, r := range reqs {
			offered[r]++
		}
		var prev float64
		for i, comp := range done {
			if comp.Done < prev {
				t.Fatalf("completions out of order at %d: %.3f after %.3f", i, comp.Done, prev)
			}
			prev = comp.Done
			if comp.Done < comp.Arrival {
				t.Fatalf("%s completed at %.3f before arriving at %.3f", comp.ObjectID, comp.Done, comp.Arrival)
			}
			if offered[comp.Request] == 0 {
				t.Fatalf("%s@%.3f completed more often than requested", comp.ObjectID, comp.Arrival)
			}
			offered[comp.Request]--
		}
		// Robot ledger: every mount and unmount is one arm move.
		if m.RobotMoves != m.Mounts+m.Unmounts {
			t.Fatalf("robot moves %d != mounts %d + unmounts %d", m.RobotMoves, m.Mounts, m.Unmounts)
		}
		if m.Unmounts > m.Mounts {
			t.Fatalf("unmounts %d exceed mounts %d", m.Unmounts, m.Mounts)
		}
		if m.Served > 0 && m.Mounts == 0 {
			t.Fatal("served requests without mounting a cartridge")
		}
	})
}
