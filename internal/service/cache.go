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
	// holders counts the jobs running on solver; guarded by
	// solverCache.mu.
	holders int
}

// newSolverCache builds an LRU holding capacity sessions (positive;
// Options.normalize defaults it).
func newSolverCache(capacity int) *solverCache {
	return &solverCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached session for key, building and inserting one
// with build on a miss. The second result reports a hit. Building
// happens under the cache lock: solve.New only normalizes options and
// allocates an empty evaluator (analyses fill it later), so the
// critical section stays short and concurrent requests for the same key
// can never race two sessions. A synchronous analysis batch uses the
// session without a hold: the next batch, typically the neighbours of
// this one, reuses the stage entries it leaves.
func (c *solverCache) get(key string, build func() (*solve.Solver, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key, build)
}

// acquire is get plus a hold for a job, which ends it with release.
func (c *solverCache) acquire(key string, build func() (*solve.Solver, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, hit, err := c.getLocked(key, build)
	if err == nil {
		e.holders++
	}
	return e, hit, err
}

func (c *solverCache) getLocked(key string, build func() (*solve.Solver, error)) (*cacheEntry, bool, error) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry), true, nil
	}
	s, err := build()
	if err != nil {
		return nil, false, err
	}
	c.misses++
	e := &cacheEntry{key: key, solver: s}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	return e, false, nil
}

// release ends one job's hold on e. The last job out releases the
// session's stage and intern tables (core.Memo.ReleaseStages), whoever
// filled them: a job's stage entries serve the fixed points of its own
// search, the next job on the session gains little from them (at most
// 3–5% CPU for an OR job with a new seed; ARCHITECTURE §8.2), and an
// idle session's whole analyses still serve a repeat of a finished
// job. The count and
// the release share the cache lock, so a job that acquires e meanwhile
// either holds it before the count reaches zero or starts after the
// release: no job loses entries mid-run.
func (c *solverCache) release(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.holders--; e.holders == 0 {
		solve.Memo(e.solver).ReleaseStages()
	}
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

// memoEntries sums the table sizes of every cached session's evaluator.
func (c *solverCache) memoEntries() core.MemoEntries {
	c.mu.Lock()
	defer c.mu.Unlock()
	var agg core.MemoEntries
	for el := c.ll.Front(); el != nil; el = el.Next() {
		agg.Add(solve.Memo(el.Value.(*cacheEntry).solver).Entries())
	}
	return agg
}
