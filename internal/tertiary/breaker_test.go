package tertiary

import "testing"

func TestBreakerStates(t *testing.T) {
	b := newBreaker(4)
	if !b.admits(true) || !b.admits(false) {
		t.Fatal("fully live breaker rejected traffic")
	}
	if got := b.effectiveCap(100); got != 100 {
		t.Fatalf("fully live effectiveCap(100) = %d", got)
	}

	b.setLive(2)
	if b.admits(true) {
		t.Fatal("brownout admitted best-effort work")
	}
	if !b.admits(false) {
		t.Fatal("brownout shed non-best-effort work")
	}
	if got := b.effectiveCap(100); got != 50 {
		t.Fatalf("brownout effectiveCap(100) = %d, want 50", got)
	}

	b.setLive(0)
	if b.admits(false) {
		t.Fatal("all-down breaker admitted work")
	}

	// Repair re-admits automatically.
	b.setLive(4)
	if !b.admits(true) {
		t.Fatal("repaired breaker still shedding")
	}
}

func TestBreakerClamps(t *testing.T) {
	b := newBreaker(0) // below 1 selects 1
	if b.live != 1 {
		t.Fatalf("live %d, want 1", b.live)
	}
	b.setLive(-3)
	if b.live != 0 {
		t.Fatalf("negative setLive: live %d", b.live)
	}
	b.setLive(99)
	if b.live != 1 {
		t.Fatalf("oversized setLive: live %d", b.live)
	}
}

func TestBreakerEffectiveCapRounding(t *testing.T) {
	b := newBreaker(3)
	b.setLive(1)
	// ceil(10 * 1/3) = 4; never below 1 while a drive lives.
	if got := b.effectiveCap(10); got != 4 {
		t.Fatalf("effectiveCap(10) at 1/3 = %d, want 4", got)
	}
	if got := b.effectiveCap(1); got != 1 {
		t.Fatalf("effectiveCap(1) at 1/3 = %d, want 1", got)
	}
}
