package tertiary

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// acceptanceGrid is the (MTTF, MTTR) coordinate the PR's acceptance
// pins: finite drive MTTF with cartridge loss armed, swept at R=1 and
// R=2. Matches the defaults behind results/availability.txt.
func acceptanceGrid(workers int) OutageConfig {
	return OutageConfig{
		MTTFsSec:          []float64{14400},
		MTTRsSec:          []float64{1800},
		Replicas:          []int{1, 2},
		CartridgeLossRate: 0.02,
		BadSpotRate:       0.05,
		RobotStallRate:    0.02,
		Seed:              1,
		Workers:           workers,
	}
}

// TestOutageReplicaAvailability pins the headline result: at the same
// workload and the same component-failure history, R=1 loses a
// cartridge and fails its requests while R=2 completes every request
// through rescue and remote-replica reads.
func TestOutageReplicaAvailability(t *testing.T) {
	cells, err := OutageSweep(acceptanceGrid(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	var r1, r2 *OutageCell
	for i := range cells {
		switch cells[i].Replicas {
		case 1:
			r1 = &cells[i]
		case 2:
			r2 = &cells[i]
		}
	}
	if r1 == nil || r2 == nil {
		t.Fatal("missing a replication cell")
	}
	if r1.Metrics.LostCartridges == 0 || r1.Metrics.Failed == 0 {
		t.Fatalf("R=1 cell lost %d cartridges, failed %d — acceptance scenario did not fire",
			r1.Metrics.LostCartridges, r1.Metrics.Failed)
	}
	if r2.Availability != 1 || r2.Metrics.Failed != 0 {
		t.Fatalf("R=2 cell availability %.4f with %d failed, want 1.0 and 0",
			r2.Availability, r2.Metrics.Failed)
	}
	if r2.Metrics.Rescued == 0 || r2.Metrics.ReplicaReads == 0 {
		t.Fatalf("R=2 cell rescued %d, replica reads %d — want both positive",
			r2.Metrics.Rescued, r2.Metrics.ReplicaReads)
	}
	// Both cells face the same hazard processes (shared workload and
	// per-drive outage streams; cartridge loss is a per-mount-attempt
	// hazard so the count may differ once the runs diverge), and both
	// must see loss fire.
	if r2.Metrics.LostCartridges == 0 {
		t.Fatal("R=2 cell lost no cartridges — replica reads untested against loss")
	}
	for _, c := range cells {
		m := c.Metrics
		if got := m.Served + m.Failed + m.Rejected + m.Shed; got != c.Offered {
			t.Fatalf("R=%d conservation broken: %d != %d offered", c.Replicas, got, c.Offered)
		}
		if m.RobotMoves != m.Mounts+m.Unmounts+m.LostCartridges {
			t.Fatalf("R=%d robot ledger broken", c.Replicas)
		}
	}
}

// TestOutageSweepWorkerDeterminism runs the same grid serially and
// with 8 workers and requires deeply equal cells, and a deterministic
// WriteAvailability rendering.
func TestOutageSweepWorkerDeterminism(t *testing.T) {
	c1, err := OutageSweep(acceptanceGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	c8, err := OutageSweep(acceptanceGrid(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c8) {
		t.Fatalf("cells differ between 1 and 8 workers:\n%+v\n%+v", c1, c8)
	}
	var b1, b8 bytes.Buffer
	if err := WriteAvailability(&b1, c1); err != nil {
		t.Fatal(err)
	}
	if err := WriteAvailability(&b8, c8); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b8.String() {
		t.Fatal("WriteAvailability output differs between worker counts")
	}
	if !strings.Contains(b1.String(), "drive MTTF 14400 s") {
		t.Fatalf("table missing MTTF block header:\n%s", b1.String())
	}
}

// TestOutageSweepRejectsBadReplication covers the grid validation.
func TestOutageSweepRejectsBadReplication(t *testing.T) {
	cfg := acceptanceGrid(0)
	cfg.Replicas = []int{5} // exceeds the 4-tape store
	if _, err := OutageSweep(cfg); err == nil {
		t.Fatal("replication factor above the cartridge count was accepted")
	}
	cfg.Replicas = []int{0}
	if _, err := OutageSweep(cfg); err == nil {
		t.Fatal("replication factor 0 was accepted")
	}
	// 12000 objects leave a stride of ~51 segments: room for one
	// 32-segment extent, so the shared store builds, but not for the
	// second copy R=2 places behind it.
	cfg.Replicas = []int{1, 2}
	cfg.Objects = 12000
	_, err := OutageSweep(cfg)
	if err == nil || !strings.Contains(err.Error(), "2 copies") {
		t.Fatalf("a stride too short for 2 copies: err = %v, want the outage overflow error", err)
	}
}

// TestOutageSweepLargeStore runs a store whose cartridges differ in
// stride enough that a replica placed at its primary's stride would
// run off the end of the shorter cartridge: every copy must sit inside
// the stride of the cartridge holding it.
func TestOutageSweepLargeStore(t *testing.T) {
	cells, err := OutageSweep(OutageConfig{
		Objects:  512,
		Replicas: []int{1, 2},
		MTTFsSec: []float64{0},
		MTTRsSec: []float64{600},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		m := c.Metrics
		if got := m.Served + m.Failed + m.Rejected + m.Shed; got != c.Offered {
			t.Fatalf("R=%d conservation broken: %d != %d offered", c.Replicas, got, c.Offered)
		}
	}
}
