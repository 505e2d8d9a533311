// Package tilecache caches rendered PNG tiles for the serving layer. The
// hot path of a tile server is dominated by re-rendering the same tiles —
// map clients fan out over a small working set of (z, x, y) addresses — so
// the cache keeps encoded PNG bytes keyed by the full render identity
// (base table, rendered table and its generation, the extent's
// generation, tile address, pixel size, filters) behind a sharded LRU
// with byte-size-bounded eviction. Keys name generations, so a write,
// which publishes new ones, never has to reach the cache.
//
// Two production concerns are handled beyond plain LRU:
//
//   - single-flight: concurrent requests for the same missing tile are
//     deduplicated; one goroutine renders while the rest wait for its
//     result, so a popular cold tile costs one render, not N.
//
//   - the newest generation wins: for each (Table, Sample) pair only
//     tiles of the newest Epoch inserted so far are kept. An insert at a
//     newer Epoch drops the pair's older tiles from every shard, and a
//     render at an older Epoch is returned to its caller but not cached,
//     so superseded tiles do not wait for the LRU to age them out.
package tilecache

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// ErrRenderPanic is returned to single-flight waiters whose leader's
// render function panicked instead of returning.
var ErrRenderPanic = errors.New("tilecache: render panicked")

// Key identifies one rendered tile.
type Key struct {
	// Table is the base table the tile visualizes.
	Table string
	// Sample is the table actually rendered: the sample the latency
	// budget resolved to, or the caller's name for the base table itself.
	Sample string
	// Epoch is the generation of the rendered table the tile was drawn
	// from; it only grows. The cache keeps one Epoch per (Table, Sample)
	// pair, the newest it has been given.
	Epoch uint64
	// ExtentGen is a generation of Table whose data extent the tile
	// address was resolved against (geom.TileRect): 8 bytes in every
	// entry and map slot, where the extent itself would take 32.
	ExtentGen uint64
	// Z, X, Y address the tile in the table's extent (geom.TileRect).
	Z, X, Y int
	// Size is the tile edge in pixels.
	Size int
	// Filters is the canonical encoding of the request's pushed-down
	// predicates (sorted, normalized by the server), empty for an
	// unfiltered tile. Two requests with the same predicate set in
	// different spellings must canonicalize to the same string, and any
	// differing predicate set must differ here — otherwise one filter's
	// pixels would surface under another's key.
	Filters string
}

const numShards = 16

// entry is a cached tile on a shard's intrusive LRU list. meta carries
// the render's caller-defined sidecar (scan statistics for response
// headers); it rides along with the bytes so a cache hit can answer
// with the same metadata the original render produced.
type entry struct {
	key        Key
	val        []byte
	meta       any
	prev, next *entry
}

// call is an in-flight render other goroutines can wait on.
type call struct {
	done chan struct{}
	val  []byte
	meta any
	err  error
}

// shard is one lock domain: a map plus an intrusive LRU list bounded by
// bytes. head is most recently used, tail is the eviction candidate.
type shard struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	flight   map[Key]*call
	head     *entry
	tail     *entry
	bytes    int64
	maxBytes int64
}

// Cache is a sharded LRU over rendered tile bytes. Safe for concurrent
// use.
type Cache struct {
	shards [numShards]shard

	// newest holds, per (Table, Sample) pair, the newest Epoch inserted;
	// insertMu orders every insert.
	insertMu sync.Mutex
	newest   map[pair]uint64

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64
	evictions atomic.Int64
}

// DefaultMaxBytes is the cache capacity used when New is given a
// non-positive budget: 64 MiB, roughly 16k small PNG tiles.
const DefaultMaxBytes = 64 << 20

// New returns a cache bounded to maxBytes of encoded tile data (split
// evenly across shards). Non-positive maxBytes means DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{newest: make(map[pair]uint64)}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
		c.shards[i].flight = make(map[Key]*call)
		c.shards[i].maxBytes = per
	}
	return c
}

// shardOf hashes the key onto a shard.
func (c *Cache) shardOf(k Key) *shard {
	h := fnv.New32a()
	h.Write([]byte(k.Table))
	h.Write([]byte{0})
	h.Write([]byte(k.Sample))
	h.Write([]byte{0})
	h.Write([]byte(k.Filters))
	var b [20]byte
	for i, v := range [5]int{k.Z, k.X, k.Y, k.Size, int(uint32(k.Epoch))} {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	h.Write(b[:])
	return &c.shards[h.Sum32()%numShards]
}

// GetOrRender returns the cached tile, or renders and caches it. When
// several goroutines miss on the same key at once, exactly one runs
// render; the rest wait for its result (a render error is propagated to
// all waiters and nothing is cached). hit reports whether the bytes came
// straight from the cache without waiting on a render. meta is the
// sidecar render returned, cached alongside the bytes and served back
// on every hit. The returned bytes must not be modified.
func (c *Cache) GetOrRender(k Key, render func() ([]byte, any, error)) (val []byte, meta any, hit bool, err error) {
	s := c.shardOf(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.moveToFront(e)
		s.mu.Unlock()
		c.hits.Add(1)
		return e.val, e.meta, true, nil
	}
	if fl, ok := s.flight[k]; ok {
		s.mu.Unlock()
		c.waits.Add(1)
		<-fl.done
		return fl.val, fl.meta, false, fl.err
	}
	fl := &call{done: make(chan struct{})}
	s.flight[k] = fl
	s.mu.Unlock()
	c.misses.Add(1)

	// The flight entry MUST be cleared and its done channel closed even
	// when render panics — otherwise every later request for this key
	// blocks forever on a dead flight. The panic itself propagates to the
	// caller (net/http recovers per-connection); waiters get ErrRenderPanic.
	completed := false
	defer func() {
		if !completed && fl.err == nil {
			fl.err = ErrRenderPanic
		}
		if fl.err == nil {
			c.insert(s, k, fl.val, fl.meta)
		}
		s.mu.Lock()
		delete(s.flight, k)
		s.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.meta, fl.err = render()
	completed = true
	return fl.val, fl.meta, false, fl.err
}

// pair is the unit of the newest-generation rule.
type pair struct{ table, sample string }

// insert caches k's render in s, k's shard, under the newest-generation
// rule. Inserts follow renders, so one mutex can order them all;
// lookups never take it. The caller holds no shard lock.
func (c *Cache) insert(s *shard, k Key, val []byte, meta any) {
	p := pair{k.Table, k.Sample}
	c.insertMu.Lock()
	defer c.insertMu.Unlock()
	switch newest, seen := c.newest[p]; {
	case seen && k.Epoch < newest:
		return
	case seen && k.Epoch > newest:
		c.drop(func(o Key) bool { return o.Table == k.Table && o.Sample == k.Sample && o.Epoch < k.Epoch })
	}
	c.newest[p] = k.Epoch
	s.mu.Lock()
	c.evictions.Add(s.insert(k, val, meta))
	s.mu.Unlock()
}

// InvalidateTable drops every cached tile (and nothing else) whose key
// references the given base table, across all epochs, and returns how
// many it dropped. In-flight renders are not cancelled: their results
// are cached when they finish, under the key they started with.
func (c *Cache) InvalidateTable(table string) int {
	return c.drop(func(k Key) bool { return k.Table == table })
}

// drop removes the entries whose keys match from every shard.
func (c *Cache) drop(match func(Key) bool) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if match(k) {
				s.remove(e)
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time cache counter snapshot.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that triggered a render.
	Misses int64
	// Waits counts lookups that piggybacked on an in-flight render.
	Waits int64
	// Evictions counts entries dropped to stay within the byte budget.
	Evictions int64
	// Bytes and Entries describe current occupancy.
	Bytes   int64
	Entries int
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any traffic.
// Single-flight waiters are excluded: they neither hit the cache nor paid
// for a render.
func (st Stats) HitRatio() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Waits:     c.waits.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// ---- shard internals (caller holds s.mu) ----

// insert adds a new entry at the front and evicts from the tail; it
// returns the number of evictions. A value larger than the whole shard
// budget is not cached at all (it would only evict everything else and
// then be evicted itself on the next insert).
func (s *shard) insert(k Key, val []byte, meta any) int64 {
	if int64(len(val)) > s.maxBytes {
		return 0
	}
	e := &entry{key: k, val: val, meta: meta}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += int64(len(val))
	return s.evict()
}

// evict drops tail entries until the shard fits its byte budget.
func (s *shard) evict() int64 {
	var n int64
	for s.bytes > s.maxBytes && s.tail != nil {
		s.remove(s.tail)
		n++
	}
	return n
}

func (s *shard) remove(e *entry) {
	delete(s.entries, e.key)
	s.bytes -= int64(len(e.val))
	s.unlink(e)
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
