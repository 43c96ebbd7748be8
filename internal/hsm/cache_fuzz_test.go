package hsm

import (
	"fmt"
	"testing"
)

// FuzzCacheEviction drives a cache under every eviction policy with an
// arbitrary op sequence and checks the structural invariants that hold
// whatever the policy chooses: residency never exceeds capacity, the
// byte ledger matches the entries actually resident, installs and
// evictions balance, and hit+miss partitions the lookups. Each byte is
// one op over a 16-object universe: op%4 selects install / touch /
// install-if-room / residency probe, op/4 selects the object.
func FuzzCacheEviction(f *testing.F) {
	f.Add(uint16(64), []byte{0, 4, 8, 12, 1, 5, 0, 16, 20, 24, 28, 32, 2, 3})
	f.Add(uint16(1), []byte{0, 0, 4, 8})
	f.Add(uint16(300), []byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 1, 2, 3})
	f.Fuzz(func(t *testing.T, capacity uint16, ops []byte) {
		if capacity == 0 {
			capacity = 1
		}
		for _, name := range []string{"lru", "clock", "cost"} {
			pol, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			c := newNamedCache(int64(capacity), pol)
			installed := 0
			lookups, hits := 0, 0
			for _, op := range ops {
				obj := int(op) / 4 % 16
				id := fmt.Sprintf("o%d", obj)
				// Sizes and costs vary by object but are stable across
				// ops, as a real extent's are.
				bytes := int64(obj%7 + 1)
				cost := float64(obj%5) + 0.5
				switch op % 4 {
				case 0:
					if c.Install(id, bytes, cost) {
						installed++
					}
				case 1:
					lookups++
					if c.Touch(id) {
						hits++
					}
				case 2:
					if c.InstallIfRoom(id, bytes, cost) {
						installed++
					}
				case 3:
					n, resident := c.Len(), c.Resident()
					c.Contains(id)
					if c.Len() != n || c.Resident() != resident {
						t.Fatalf("%s: residency probe changed the cache", name)
					}
				}
				if c.Resident() > c.capacity {
					t.Fatalf("%s: resident %d bytes exceeds capacity %d", name, c.Resident(), c.capacity)
				}
				if c.Resident() < 0 {
					t.Fatalf("%s: resident %d bytes negative", name, c.Resident())
				}
				var sum int64
				for i := 0; i < 16; i++ {
					if c.Contains(fmt.Sprintf("o%d", i)) {
						sum += int64(i%7 + 1)
					}
				}
				if sum != c.Resident() {
					t.Fatalf("%s: resident ledger %d != entry sum %d", name, c.Resident(), sum)
				}
			}
			if installed != c.Len()+c.Evictions() {
				t.Fatalf("%s: %d installs != %d resident + %d evicted", name, installed, c.Len(), c.Evictions())
			}
			if misses := lookups - hits; hits < 0 || misses < 0 || hits+misses != lookups {
				t.Fatalf("%s: hits %d + misses %d != lookups %d", name, hits, misses, lookups)
			}
		}
	})
}
