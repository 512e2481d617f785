package solver

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dart/internal/symbolic"
)

func TestShardedCacheGetPut(t *testing.T) {
	c := NewShardedCache(64, 4)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("hit on an empty cache")
	}
	model := map[symbolic.Var]int64{0: 42}
	c.Put("k1", Sat, model)
	res, ok := c.Get("k1")
	if !ok || res.Verdict != Sat || res.Model[0] != 42 {
		t.Fatalf("Get(k1) = %+v, %v", res, ok)
	}
	// The returned model is a copy: mutating it must not poison the entry.
	res.Model[0] = 7
	res2, _ := c.Get("k1")
	if res2.Model[0] != 42 {
		t.Fatalf("cached model mutated through a Get copy: %v", res2.Model)
	}
	// So is the stored model relative to the caller's map.
	model[0] = 9
	res3, _ := c.Get("k1")
	if res3.Model[0] != 42 {
		t.Fatalf("cached model aliases the caller's map: %v", res3.Model)
	}
	c.Put("k2", Unsat, nil)
	if res, ok := c.Get("k2"); !ok || res.Verdict != Unsat || res.Model != nil {
		t.Fatalf("Get(k2) = %+v, %v", res, ok)
	}
	if c.Hits() != 4 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 4/1", c.Hits(), c.Misses())
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestShardedCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		c := NewShardedCache(0, tc.ask)
		if got := len(c.shards); got != tc.want {
			t.Errorf("shards=%d: got %d shards, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestShardedCacheEviction(t *testing.T) {
	// Total capacity 4 over 2 shards: 2 entries per shard.  Inserting
	// many distinct keys must evict, count the evictions, and keep Len
	// bounded by the capacity.
	c := NewShardedCache(4, 2)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("key-%d", i), Unsat, nil)
	}
	if c.Evictions() == 0 {
		t.Error("no evictions after overfilling")
	}
	if c.Len() > 4 {
		t.Errorf("Len = %d exceeds total capacity 4", c.Len())
	}
	if c.Evictions() != 32-int64(c.Len()) {
		t.Errorf("evictions=%d + live=%d != 32 puts", c.Evictions(), c.Len())
	}
}

func TestShardedCacheOverwrite(t *testing.T) {
	c := NewShardedCache(8, 2)
	c.Put("k", Unsat, nil)
	if evicted := c.Put("k", Sat, map[symbolic.Var]int64{1: 5}); evicted {
		t.Error("overwriting a live key reported an eviction")
	}
	res, ok := c.Get("k")
	if !ok || res.Verdict != Sat || res.Model[1] != 5 {
		t.Fatalf("Get after overwrite = %+v, %v", res, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestShardedCacheConcurrent hammers one cache from many goroutines with
// overlapping key sets; run under -race this is the data-race gate for
// the shard locking and the atomic counters.
func TestShardedCacheConcurrent(t *testing.T) {
	c := NewShardedCache(128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", i%64)
				if res, ok := c.Get(key); ok {
					if res.Verdict == Sat && res.Model[0] != int64(i%64) {
						t.Errorf("goroutine %d: key %s has model %v", g, key, res.Model)
					}
					continue
				}
				c.Put(key, Sat, map[symbolic.Var]int64{0: int64(i % 64)})
			}
		}(g)
	}
	wg.Wait()
	if got := c.Hits() + c.Misses(); got != 8*500 {
		t.Errorf("hits+misses = %d, want %d", got, 8*500)
	}
}

// TestCacheKeyBytesBound fills both cache kinds with 64 distinct 1 MiB
// keys — far fewer entries than the capacity, far more key bytes than
// the ceiling — and checks that the key bytes retained stay under the
// ceiling, with Len and Evictions accounting for every byte-driven
// eviction.
func TestCacheKeyBytesBound(t *testing.T) {
	const n = 64
	pad := strings.Repeat("k", 1<<20-8)
	key := func(i int) string { return fmt.Sprintf("%s%08d", pad, i) }

	c := NewCache(0)
	for i := 0; i < n; i++ {
		c.Put(key(i), Unsat, nil)
	}
	if c.bytes > maxCacheKeyBytes {
		t.Errorf("Cache retains %d key bytes, ceiling %d", c.bytes, maxCacheKeyBytes)
	}
	if want := maxCacheKeyBytes / (1 << 20); c.Len() != want {
		t.Errorf("Cache Len = %d, want %d", c.Len(), want)
	}
	if c.Len()+int(c.Evictions()) != n {
		t.Errorf("Cache Len %d + Evictions %d != %d puts", c.Len(), c.Evictions(), n)
	}
	if _, ok := c.Get(key(n - 1)); !ok {
		t.Error("the most recent key was evicted")
	}
	if _, ok := c.Get(key(0)); ok {
		t.Error("the oldest key survived the byte bound")
	}

	s := NewShardedCache(0, 2)
	for i := 0; i < n; i++ {
		s.Put(key(i), Unsat, nil)
	}
	retained := 0
	for i := range s.shards {
		sh := s.shards[i].c
		if sh.bytes > maxCacheKeyBytes/len(s.shards) {
			t.Errorf("shard %d retains %d key bytes, its share is %d", i, sh.bytes, maxCacheKeyBytes/len(s.shards))
		}
		retained += sh.bytes
	}
	if retained > maxCacheKeyBytes {
		t.Errorf("ShardedCache retains %d key bytes, ceiling %d", retained, maxCacheKeyBytes)
	}
	if s.Len() == 0 || s.Evictions() == 0 || s.Len()+int(s.Evictions()) != n {
		t.Errorf("ShardedCache Len %d + Evictions %d, want %d puts with some evicted", s.Len(), s.Evictions(), n)
	}

	// A key longer than the whole ceiling is not stored, and evicts
	// nothing on its way out.
	small := newCache(4, 16)
	small.Put("short", Unsat, nil)
	if small.Put(strings.Repeat("x", 17), Unsat, nil) || small.Len() != 1 || small.bytes != len("short") {
		t.Errorf("oversized key: Len %d, bytes %d", small.Len(), small.bytes)
	}
}
