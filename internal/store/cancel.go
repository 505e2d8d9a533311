package store

import "context"

// cancelCheckMask gates how often a canceler actually polls its
// context: once per (mask+1) work-unit ticks. A work unit is one
// kernel block (scanBatchRows rows), one touched grid row, one tree
// node pop, one kNN leaf visit, or one delta bucket — so at the default
// a poll happens at most every ~64K rows of scan progress, cheap enough
// that the zero-alloc hot path is unaffected and frequent enough that a
// canceled 1M-row scan unwinds within a few milliseconds.
const cancelCheckMask = 15

// canceler is the cooperative-cancellation handle threaded through the
// scan and kNN internals. A nil *canceler (every context-free entry
// point, and contexts with no Done channel) makes every method a no-op
// compiled to a nil check — the hot path pays nothing. It is NOT safe
// for concurrent use: the tick counter is unsynchronized, so shard
// goroutines must fork() their own.
type canceler struct {
	ctx  context.Context
	n    uint
	seen bool
}

// newCanceler returns a canceler for ctx, or nil when ctx can never be
// canceled (no deadline, no cancel — e.g. context.Background), keeping
// the deadline-free path identical to the context-free one.
func newCanceler(ctx context.Context) *canceler {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &canceler{ctx: ctx}
}

// stop reports whether the scan should unwind. Call once per work
// unit; most calls cost one increment and one mask test. Once the
// context fires, stop latches true so unwinding code never resumes
// work.
func (c *canceler) stop() bool {
	if c == nil {
		return false
	}
	if c.seen {
		return true
	}
	c.n++
	if c.n&cancelCheckMask != 0 {
		return false
	}
	if c.ctx.Err() != nil {
		c.seen = true
		return true
	}
	return false
}

// cause polls the context directly (no tick gating) and returns its
// error: context.Canceled or context.DeadlineExceeded once canceled,
// nil before. Callers use it at phase boundaries — after a probe,
// between rects — where an unconditional check is cheap, and to turn a
// partially-collected result into the error the caller returns.
func (c *canceler) cause() error {
	if c == nil {
		return nil
	}
	return c.ctx.Err()
}

// fork returns a canceler for a shard goroutine: same context, its own
// tick counter. A nil receiver forks to nil.
func (c *canceler) fork() *canceler {
	if c == nil {
		return nil
	}
	return &canceler{ctx: c.ctx}
}
