package solver

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dart/internal/symbolic"
)

// DefaultCacheCap is the solve-cache capacity used when a caller asks
// for a cache without choosing one.  Directed searches rarely see more
// than a few thousand distinct (slice, hint) keys before restarting, so
// this bounds memory without measurable hit-rate loss.
const DefaultCacheCap = 1024

// maxCacheKeyBytes bounds the key bytes one cache retains, whatever its
// entry capacity (a ShardedCache splits it over its shards).  Keys grow
// with path depth, so on a deeply nested program the entry cap alone
// would let a cache hold gigabytes of keys; ordinary searches stay far
// below this ceiling and never evict for it.
const maxCacheKeyBytes = 16 << 20

// CachedSolve is one memoized slice-level solve result: the verdict and,
// for Sat, the model.  It is the *pre-verification* result — callers
// re-verify against their full conjunction on every use, so a cached
// entry never weakens the soundness contract.
type CachedSolve struct {
	Verdict Verdict
	// Model is the satisfying assignment (nil unless Verdict is Sat).
	Model map[symbolic.Var]int64
}

// SolveCache is the memoization contract of the solver fast path: Get
// returns a previously stored slice-level result, Put stores one and
// reports whether doing so evicted an older entry.  The single-owner
// Cache implements it lock-free for sequential searches; ShardedCache
// implements it with per-shard locking for the parallel frontier
// engine, whose workers share one memo.
type SolveCache interface {
	Get(key string) (CachedSolve, bool)
	Put(key string, verdict Verdict, model map[symbolic.Var]int64) (evicted bool)
}

// Cache is a bounded LRU memo of sliced solves, keyed by CacheKey.  One
// search owns one cache (no locking), mirroring the per-search metrics
// registry, so a parallel audit's results stay independent of its
// worker count.  Because the key renders the exact solver input — the
// predicate sequence plus the hint values the solve depends on — a hit
// is identical to re-running the solver: caching can change how fast a
// search runs, never what it finds.
type Cache struct {
	cap      int
	maxBytes int // key-byte ceiling
	bytes    int // key bytes currently retained
	entries  map[string]*list.Element
	lru      *list.List // front = most recent
	hits     int64
	misses   int64
	evicted  int64
}

type cacheEntry struct {
	key string
	res CachedSolve
}

// NewCache returns a cache holding up to capacity entries (<= 0 selects
// DefaultCacheCap) and at most maxCacheKeyBytes of keys.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return newCache(capacity, maxCacheKeyBytes)
}

func newCache(capacity, maxBytes int) *Cache {
	return &Cache{
		cap:      capacity,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Get returns the memoized result for key.  The model is copied, so
// callers may complete or consume it freely.
func (c *Cache) Get(key string) (CachedSolve, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return CachedSolve{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	res.Model = copyModel(res.Model)
	return res, true
}

// Put memoizes the result for key, evicting least recently used entries
// until both the entry capacity and the key-byte ceiling hold; it
// reports whether an eviction happened.  A key longer than the whole
// ceiling is not stored.  The model is copied at store time.
func (c *Cache) Put(key string, verdict Verdict, model map[symbolic.Var]int64) (evicted bool) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = CachedSolve{Verdict: verdict, Model: copyModel(model)}
		c.lru.MoveToFront(el)
		return false
	}
	if len(key) > c.maxBytes {
		return false
	}
	for c.lru.Len() >= c.cap || c.bytes+len(key) > c.maxBytes {
		oldest := c.lru.Back()
		k := oldest.Value.(*cacheEntry).key
		delete(c.entries, k)
		c.lru.Remove(oldest)
		c.bytes -= len(k)
		c.evicted++
		evicted = true
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{
		key: key,
		res: CachedSolve{Verdict: verdict, Model: copyModel(model)},
	})
	c.bytes += len(key)
	return evicted
}

// Hits, Misses, and Evictions report the cache's lifetime activity.
func (c *Cache) Hits() int64      { return c.hits }
func (c *Cache) Misses() int64    { return c.misses }
func (c *Cache) Evictions() int64 { return c.evicted }

// Len returns the number of live entries.
func (c *Cache) Len() int { return c.lru.Len() }

// ShardedCache is the concurrency-safe solve cache shared by the
// workers of a parallel frontier search: the key space is split over
// power-of-two shards by FNV-1a hash, each shard a private LRU Cache
// behind its own mutex, so workers solving unrelated constraints never
// contend on one lock.  Hit/miss/eviction totals are atomics, readable
// while workers run.
//
// Sharing is sound for the same reason the per-search cache is: keys
// render the exact solver input against a variable numbering that is
// global to the search (the parallel engine shares one input registry
// across workers), so a hit — whoever stored it — returns precisely
// what a fresh solve would.
type ShardedCache struct {
	shards []cacheShard
	mask   uint32
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

type cacheShard struct {
	mu sync.Mutex
	c  *Cache
	// padding to keep neighbouring shard locks off one cache line.
	_ [48]byte
}

// NewShardedCache returns a sharded cache holding up to capacity entries
// in total (<= 0 selects DefaultCacheCap), spread over at least shards
// shards (rounded up to a power of two, minimum 2).  The key-byte
// ceiling is split over the shards the same way.
func NewShardedCache(capacity, shards int) *ShardedCache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	n := 2
	for n < shards {
		n <<= 1
	}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	s := &ShardedCache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].c = newCache(per, maxCacheKeyBytes/n)
	}
	return s
}

// shardOf hashes key with FNV-1a and masks into the shard table.
func (s *ShardedCache) shardOf(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h&s.mask]
}

// Get implements SolveCache.  The model is copied by the underlying
// shard, so callers may mutate it freely.
func (s *ShardedCache) Get(key string) (CachedSolve, bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	res, ok := sh.c.Get(key)
	sh.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return res, ok
}

// Put implements SolveCache.
func (s *ShardedCache) Put(key string, verdict Verdict, model map[symbolic.Var]int64) (evicted bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	before := sh.c.evicted
	evicted = sh.c.Put(key, verdict, model)
	n := sh.c.evicted - before
	sh.mu.Unlock()
	if n > 0 {
		s.evicts.Add(n)
	}
	return evicted
}

// Hits, Misses, and Evictions report the cache's lifetime activity;
// safe to read while workers are still solving.
func (s *ShardedCache) Hits() int64      { return s.hits.Load() }
func (s *ShardedCache) Misses() int64    { return s.misses.Load() }
func (s *ShardedCache) Evictions() int64 { return s.evicts.Load() }

// Len returns the number of live entries across all shards.
func (s *ShardedCache) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.c.Len()
		sh.mu.Unlock()
	}
	return n
}

func copyModel(m map[symbolic.Var]int64) map[symbolic.Var]int64 {
	if m == nil {
		return nil
	}
	out := make(map[symbolic.Var]int64, len(m))
	for v, x := range m {
		out[v] = x
	}
	return out
}
