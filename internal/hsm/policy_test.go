package hsm

import "testing"

// namedCache drives a Cache by object name, interning each name to
// the next free slot on first use the way the tier maps catalog IDs to
// their layout positions.
type namedCache struct {
	*Cache
	slots map[string]int
}

func newNamedCache(capacity int64, p Policy) *namedCache {
	return &namedCache{Cache: NewCache(capacity, p), slots: map[string]int{}}
}

func (c *namedCache) slot(id string) int {
	s, ok := c.slots[id]
	if !ok {
		s = len(c.slots)
		c.slots[id] = s
	}
	return s
}

func (c *namedCache) Contains(id string) bool { return c.Cache.Contains(c.slot(id)) }
func (c *namedCache) Touch(id string) bool    { return c.Cache.Touch(c.slot(id)) }
func (c *namedCache) Install(id string, bytes int64, cost float64) bool {
	return c.Cache.Install(c.slot(id), bytes, cost)
}
func (c *namedCache) InstallIfRoom(id string, bytes int64, cost float64) bool {
	return c.Cache.InstallIfRoom(c.slot(id), bytes, cost)
}

// fill builds a cache under the named policy and installs the ids in
// order. Each entry costs its index in seconds unless costs are
// supplied.
func fill(t *testing.T, policy string, capacity int64, ids []string, bytes int64, costs ...float64) *namedCache {
	t.Helper()
	p, err := NewPolicy(policy)
	if err != nil {
		t.Fatalf("NewPolicy(%q): %v", policy, err)
	}
	c := newNamedCache(capacity, p)
	for i, id := range ids {
		cost := float64(i)
		if i < len(costs) {
			cost = costs[i]
		}
		if !c.Install(id, bytes, cost) {
			t.Fatalf("install %q rejected", id)
		}
	}
	return c
}

func TestNewPolicy(t *testing.T) {
	for name, want := range map[string]string{"": "lru", "lru": "lru", "clock": "clock", "cost": "cost"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("NewPolicy(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := NewPolicy("fifo"); err == nil {
		t.Error("NewPolicy(\"fifo\") accepted an unknown policy")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	// Capacity 3; a, b, c resident. Touch a (oldest), then install d:
	// b is now least recent and must be the victim.
	c := fill(t, "lru", 3, []string{"a", "b", "c"}, 1)
	if !c.Touch("a") {
		t.Fatal("touch a: not resident")
	}
	if !c.Install("d", 1, 0) {
		t.Fatal("install d rejected")
	}
	if c.Contains("b") {
		t.Error("lru evicted something other than the least recently used: b survived")
	}
	for _, id := range []string{"a", "c", "d"} {
		if !c.Contains(id) {
			t.Errorf("lru evicted %q, which was more recent than b", id)
		}
	}
}

func TestClockSecondChance(t *testing.T) {
	// Capacity 3; a, b, c installed in order, hand at a. Touch a: the
	// sweep for d's slot clears a's bit, passes it over, and takes b —
	// the second chance in action.
	c := fill(t, "clock", 3, []string{"a", "b", "c"}, 1)
	if !c.Touch("a") {
		t.Fatal("touch a: not resident")
	}
	if !c.Install("d", 1, 0) {
		t.Fatal("install d rejected")
	}
	if c.Contains("b") {
		t.Error("clock victim was not b: the touched head was not given its second chance")
	}
	if !c.Contains("a") {
		t.Error("clock evicted a despite its reference bit")
	}

	// The hand now rests on b's successor c with a clear bit: the next
	// pressure install takes it.
	if !c.Install("e", 1, 0) {
		t.Fatal("install e rejected")
	}
	if c.Contains("c") {
		t.Error("clock second victim was not c")
	}
}

func TestCostAwareEvictsCheapest(t *testing.T) {
	// Costs: a=5, b=1, c=3. The cheapest re-fetch (b) pays first,
	// regardless of recency.
	c := fill(t, "cost", 3, []string{"a", "b", "c"}, 1, 5, 1, 3)
	c.Touch("b") // recency must not save a cheap entry
	if !c.Install("d", 1, 7) {
		t.Fatal("install d rejected")
	}
	if c.Contains("b") {
		t.Error("cost-aware kept the cheapest entry b")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Error("cost-aware evicted an expensive entry while a cheaper one was resident")
	}
}

func TestCostAwareTieBreaksByInstallOrder(t *testing.T) {
	// a and b share the cheapest cost; the earlier install (a) pays.
	c := fill(t, "cost", 3, []string{"a", "b", "c"}, 1, 2, 2, 5)
	if !c.Install("d", 1, 9) {
		t.Fatal("install d rejected")
	}
	if c.Contains("a") {
		t.Error("cost tie not broken by install order: a (earlier Seq) survived")
	}
	if !c.Contains("b") {
		t.Error("cost tie evicted the later-installed b instead of a")
	}
}

func TestInstallRefreshesResident(t *testing.T) {
	c := fill(t, "lru", 3, []string{"a", "b", "c"}, 1)
	// Re-installing a is a touch, not a new entry.
	if c.Install("a", 1, 0) {
		t.Error("re-install of a resident entry reported a new install")
	}
	if c.Len() != 3 || c.Resident() != 3 {
		t.Fatalf("resident after re-install: %d entries / %d bytes, want 3/3", c.Len(), c.Resident())
	}
	if !c.Install("d", 1, 0) {
		t.Fatal("install d rejected")
	}
	if !c.Contains("a") {
		t.Error("re-install did not refresh a's recency")
	}
	if c.Contains("b") {
		t.Error("victim after a's refresh should have been b")
	}
}

func TestInstallRejectsOversized(t *testing.T) {
	c := fill(t, "lru", 4, []string{"a"}, 2)
	if c.Install("huge", 5, 0) {
		t.Error("object larger than the cache was admitted")
	}
	if c.Contains("huge") || !c.Contains("a") {
		t.Error("oversized install disturbed residency")
	}
	if c.InstallIfRoom("big", 3, 0) {
		t.Error("InstallIfRoom evicted or overcommitted for a 3-byte object with 2 bytes free")
	}
	if c.Evictions() != 0 {
		t.Errorf("prefetch-path install evicted %d entries", c.Evictions())
	}
}
