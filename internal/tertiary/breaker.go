package tertiary

// breaker is the brownout admission controller: it learns the
// library's effective capacity — live drives over configured drives —
// and turns it into an admission decision per arrival. It is a pure
// function of the live-drive count the event loop reports through
// setLive, so re-admission on repair is automatic: setLive back to the
// configured count and the next arrival is admitted normally.
type breaker struct {
	configured int
	live       int
}

// newBreaker returns a breaker for a pool of the given size with every
// drive live; sizes below 1 select 1.
func newBreaker(configured int) *breaker {
	configured = max(configured, 1)
	return &breaker{configured: configured, live: configured}
}

// setLive reports the current number of live drives, clamped to
// [0, configured].
func (b *breaker) setLive(n int) { b.live = min(max(n, 0), b.configured) }

// headroom returns the live capacity fraction in [0, 1].
func (b *breaker) headroom() float64 {
	return float64(b.live) / float64(b.configured)
}

// admits reports whether an arrival passes the breaker: nothing while
// every drive is down, only non-best-effort traffic while some are,
// everything when all are live.
func (b *breaker) admits(bestEffort bool) bool {
	return b.live > 0 && (b.live == b.configured || !bestEffort)
}

// effectiveCap scales a configured queue capacity by the live
// fraction, rounding up, never below 1 while any drive lives: with
// half the pool down, admitting a full queue only builds sojourn the
// surviving drives cannot serve. A zero capacity (unbounded) passes
// through, and a negative one clamps to 0 rather than leaking through
// as a cap every depth comparison trivially exceeds.
func (b *breaker) effectiveCap(cap int) int {
	if cap < 0 {
		return 0
	}
	if b.live >= b.configured || cap == 0 {
		return cap
	}
	return max((cap*b.live+b.configured-1)/b.configured, 1)
}
