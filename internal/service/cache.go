package service

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/solve"
)

// solverCache is an LRU of base Solver sessions keyed by the canonical
// system fingerprint alone: every option variant (strategy, seed,
// budgets) of one system derives its per-request session from the same
// cached base via Solver.Derive, so the base's exact-keyed evaluator is
// shared across a whole sweep.
// A hit changes nothing about the synthesized configuration — only how
// fast the job starts producing evaluations.
type solverCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses int
}

type cacheEntry struct {
	key    string
	solver *solve.Solver
}

// newSolverCache builds an LRU holding capacity sessions (positive;
// Options.normalize defaults it).
func newSolverCache(capacity int) *solverCache {
	return &solverCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// getOrCreate returns the cached Solver for key, building and inserting
// one with build on a miss. The second result reports a hit. Building
// happens under the cache lock: solve.New only normalizes options and
// allocates an empty evaluator (analyses fill it later), so the critical
// section stays short and concurrent requests for the same key can never
// race two sessions.
func (c *solverCache) getOrCreate(key string, build func() (*solve.Solver, error)) (*solve.Solver, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).solver, true, nil
	}
	s, err := build()
	if err != nil {
		return nil, false, err
	}
	c.misses++
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, solver: s})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	return s, false, nil
}

// stats returns the hit/miss counters and current size.
func (c *solverCache) stats() (hits, misses, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// deltaStats aggregates the incremental-evaluation counters across
// every cached base session (derived sessions share their base's
// caches, so this covers all live solver state). Evicted sessions take
// their counts with them: the aggregate tracks the cache population,
// which is what a hit-rate dashboard wants.
func (c *solverCache) deltaStats() core.MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var agg core.MemoStats
	for el := c.ll.Front(); el != nil; el = el.Next() {
		agg.Add(el.Value.(*cacheEntry).solver.DeltaStats())
	}
	return agg
}
