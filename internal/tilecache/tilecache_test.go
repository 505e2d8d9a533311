package tilecache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func key(table string, z, x, y int) Key {
	return Key{Table: table, Sample: table + "_vas_100", Z: z, X: x, Y: y, Size: 256}
}

func TestGetOrRenderCachesAndHits(t *testing.T) {
	c := New(1 << 20)
	renders := 0
	render := func() ([]byte, any, error) {
		renders++
		return []byte("tile-bytes"), "sidecar", nil
	}
	v, meta, hit, err := c.GetOrRender(key("t", 1, 0, 0), render)
	if err != nil || hit || !bytes.Equal(v, []byte("tile-bytes")) {
		t.Fatalf("first fetch: v=%q hit=%v err=%v", v, hit, err)
	}
	if meta != "sidecar" {
		t.Fatalf("first fetch meta = %v, want sidecar", meta)
	}
	v, meta, hit, err = c.GetOrRender(key("t", 1, 0, 0), render)
	if err != nil || !hit || !bytes.Equal(v, []byte("tile-bytes")) {
		t.Fatalf("second fetch: v=%q hit=%v err=%v", v, hit, err)
	}
	if meta != "sidecar" {
		t.Fatalf("cache hit lost the render meta: got %v", meta)
	}
	if renders != 1 {
		t.Errorf("renders = %d, want 1", renders)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %g, want 0.5", got)
	}
}

func TestRenderErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("render failed")
	if _, _, _, err := c.GetOrRender(key("t", 0, 0, 0), func() ([]byte, any, error) { return nil, nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failure is not cached: the next call renders again.
	v, _, hit, err := c.GetOrRender(key("t", 0, 0, 0), func() ([]byte, any, error) { return []byte("ok"), nil, nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry after error: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestByteBoundedEviction(t *testing.T) {
	// Shard budget = 4 KiB per shard; 1 KiB tiles -> at most 4 per shard.
	c := New(4096 * numShards)
	tile := make([]byte, 1024)
	for i := 0; i < 200; i++ {
		c.Put(key("t", 10, i, 0), tile)
	}
	st := c.Stats()
	if st.Bytes > 4096*numShards {
		t.Errorf("cache bytes %d exceed budget %d", st.Bytes, 4096*numShards)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions under byte pressure")
	}
	if st.Entries == 0 {
		t.Error("cache should retain recent entries")
	}
}

func TestLRUOrder(t *testing.T) {
	// One key per distinct address; keep a shard small enough for 2
	// one-byte... use sizes: budget lets ~3 small entries per shard. To
	// make the test deterministic, use keys that land on the same shard
	// by construction: identical fields except Z, filtered by probing.
	c := New(64 * numShards) // 64 bytes per shard
	var sameShard []Key
	target := c.shardOf(key("t", 0, 0, 0))
	for z := 0; len(sameShard) < 3 && z < 10_000; z++ {
		k := key("t", z, 0, 0)
		if c.shardOf(k) == target {
			sameShard = append(sameShard, k)
		}
	}
	if len(sameShard) < 3 {
		t.Fatal("could not find colliding keys")
	}
	val := make([]byte, 30) // 2 fit, 3rd evicts the LRU
	c.Put(sameShard[0], val)
	c.Put(sameShard[1], val)
	// Touch [0] so [1] becomes LRU.
	if got := c.Get(sameShard[0]); got == nil {
		t.Fatal("entry 0 missing before eviction")
	}
	c.Put(sameShard[2], val)
	if got := c.Get(sameShard[0]); got == nil {
		t.Error("recently used entry was evicted")
	}
	if got := c.Get(sameShard[1]); got != nil {
		t.Error("LRU entry survived eviction")
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(128 * numShards)
	huge := make([]byte, 4096)
	v, _, hit, err := c.GetOrRender(key("t", 0, 0, 0), func() ([]byte, any, error) { return huge, nil, nil })
	if err != nil || hit || len(v) != len(huge) {
		t.Fatalf("oversized render: len=%d hit=%v err=%v", len(v), hit, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("oversized value was cached: %+v", st)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(1 << 20)
	var renders atomic.Int32
	gate := make(chan struct{})
	const goroutines = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, _, err := c.GetOrRender(key("t", 3, 1, 2), func() ([]byte, any, error) {
				renders.Add(1)
				<-gate // hold the render so the others pile up
				return []byte("once"), nil, nil
			})
			if err != nil || string(v) != "once" {
				t.Errorf("v=%q err=%v", v, err)
			}
		}()
	}
	close(start)
	close(gate)
	wg.Wait()
	if got := renders.Load(); got != 1 {
		t.Errorf("renders = %d, want 1 (single-flight)", got)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Waits != goroutines-1 {
		t.Errorf("hits+waits = %d, want %d", st.Hits+st.Waits, goroutines-1)
	}
}

func TestRenderPanicDoesNotWedgeKey(t *testing.T) {
	c := New(1 << 20)
	k := key("t", 4, 4, 4)
	// Leader panics mid-render with waiters queued behind it.
	var waiters sync.WaitGroup
	leaderIn := make(chan struct{})
	for i := 0; i < 4; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			<-leaderIn
			// A waiter piggybacking on the doomed flight sees
			// ErrRenderPanic; one arriving after cleanup renders fresh.
			// Both are acceptable — blocking forever is not.
			_, _, _, err := c.GetOrRender(k, func() ([]byte, any, error) { return []byte("recovered"), nil, nil })
			if err != nil && !errors.Is(err, ErrRenderPanic) {
				t.Errorf("waiter err = %v", err)
			}
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		c.GetOrRender(k, func() ([]byte, any, error) {
			close(leaderIn)
			panic("render exploded")
		})
	}()
	waiters.Wait()
	// The key is usable again.
	v, _, _, err := c.GetOrRender(k, func() ([]byte, any, error) { return []byte("recovered"), nil, nil })
	if err != nil || string(v) != "recovered" {
		t.Fatalf("post-panic fetch: v=%q err=%v", v, err)
	}
}

func TestInvalidateTable(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 50; i++ {
		c.Put(key("keep", 6, i, i), []byte("k"))
		c.Put(key("drop", 6, i, i), []byte("d"))
	}
	if n := c.InvalidateTable("drop"); n != 50 {
		t.Errorf("invalidated %d, want 50", n)
	}
	for i := 0; i < 50; i++ {
		if c.Get(key("drop", 6, i, i)) != nil {
			t.Fatalf("dropped table tile %d still cached", i)
		}
		if c.Get(key("keep", 6, i, i)) == nil {
			t.Fatalf("unrelated tile %d was invalidated", i)
		}
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(32 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(fmt.Sprintf("t%d", i%3), i%5, i%7, g)
				switch i % 4 {
				case 0:
					c.Get(k)
				case 1:
					c.Put(k, []byte("abcdefgh"))
				case 2:
					_, _, _, _ = c.GetOrRender(k, func() ([]byte, any, error) { return []byte("r"), nil, nil })
				case 3:
					c.InvalidateTable("t1")
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 {
		t.Errorf("negative byte accounting: %+v", st)
	}
}
