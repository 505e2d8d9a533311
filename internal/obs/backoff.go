package obs

import (
	"math/rand"
	"time"
)

// Backoff defaults, used when the corresponding field is zero. The base
// is deliberately short — the first retry after a transient failure
// (e.g. a momentarily full disk) should come quickly — and the ceiling
// keeps a persistently broken target from being hammered.
const (
	DefaultBackoffBase   = 1 * time.Second
	DefaultBackoffMax    = 60 * time.Second
	DefaultBackoffJitter = 0.5
)

// Backoff computes jittered exponential retry delays for background
// work that keeps failing: each Advance doubles the delay (capped at
// Max) and subtracts a uniform random slice of up to Jitter of it, so a
// fleet of processes that degraded at the same instant spreads its
// retries instead of thundering in lockstep. The zero value is ready to
// use with the defaults above. Not safe for concurrent use; callers
// hold their own lock (vas.Catalog advances it under snapMu).
type Backoff struct {
	// Base is the un-jittered first-retry delay (DefaultBackoffBase if
	// zero).
	Base time.Duration
	// Max caps the un-jittered exponential delay (DefaultBackoffMax if
	// zero).
	Max time.Duration
	// Jitter is the fraction of each delay randomized away: the
	// returned delay is uniform in [d·(1−Jitter), d]. Zero means
	// DefaultBackoffJitter; negative disables jitter entirely
	// (deterministic delays, for tests).
	Jitter float64

	failures int
	cur      time.Duration
	// rnd overrides the jitter source in tests; nil means
	// math/rand.Float64.
	rnd func() float64
}

// Advance records one more consecutive failure and returns the delay to
// wait before the retry after it. The n-th consecutive failure yields
// roughly Base·2^(n−1), jittered downward, never above Max.
func (b *Backoff) Advance() time.Duration {
	base, max, jitter := b.Base, b.Max, b.Jitter
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	if jitter == 0 {
		jitter = DefaultBackoffJitter
	}
	b.failures++
	d := base
	// Shift with an overflow/cap guard: past the ceiling the streak
	// length no longer matters.
	for i := 1; i < b.failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		r := rand.Float64
		if b.rnd != nil {
			r = b.rnd
		}
		d -= time.Duration(jitter * r() * float64(d))
	}
	b.cur = d
	return d
}

// Current returns the delay chosen by the most recent Advance, or zero
// when no failure has been recorded since the last Reset — a healthy
// caller should not wait at all.
func (b *Backoff) Current() time.Duration { return b.cur }

// Reset clears the failure streak after a success: the next Advance
// starts again from Base, and Current reports zero until then.
func (b *Backoff) Reset() {
	b.failures = 0
	b.cur = 0
}
