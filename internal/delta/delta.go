// Package delta is the incremental delta-evaluation engine: an
// Evaluator wraps core.AnalyzeWith with caches that exploit how the
// synthesis loops work — thousands of candidate configurations per run,
// each differing from a parent by a single §5.1 move — so that the
// unchanged parts of the analysis are reused instead of recomputed.
//
// Two layers stack up, both provably bit-identical to the cold path:
//
//  1. A full-configuration memo: the canonical encoding of psi =
//     <phi, beta, pi> keys completed analyses, so re-visited
//     configurations (hill climbers circling, HOPA re-deriving the same
//     priorities, DSE offspring colliding) cost a map lookup.
//  2. Stage caches inside core.AnalyzeWith (see core.Memo): the static
//     TTC schedule, the per-resource response-time fixed points and the
//     gateway OutTTP queue are each keyed by an exact encoding of their
//     own inputs. A move that touches one cluster changes exactly that
//     cluster's keys; every other resource's entries keep hitting.
//     Stale reuse is impossible by construction — "invalidation" is
//     implicit in the keying — and memory stays bounded because each
//     cache is dropped whole when it reaches its cap.
//
// Because every cache is exact-keyed, an Evaluator can be shared across
// seeds, strategies and worker counts without breaking the repo-wide
// determinism invariants; the differential harness (differential_test.go
// at the repository root) replays every strategy with the engine on and
// off and asserts byte-identical results.
package delta

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// configCap bounds the full-configuration memo; on overflow the map is
// dropped whole (the memo only affects speed, never results).
const configCap = 8192

// Evaluator is the incremental evaluator for one (application,
// architecture) pair. It is safe for concurrent use by the workers of
// an evaluation batch. Returned *core.Analysis values are shared across
// callers and must be treated as read-only, which every consumer in
// this repository already does.
type Evaluator struct {
	app  *model.Application
	arch *model.Architecture
	memo *core.Memo

	mu      sync.Mutex
	configs map[string]*core.Analysis
	hits    int64
	misses  int64
}

// New builds an Evaluator for app and arch.
func New(app *model.Application, arch *model.Architecture) *Evaluator {
	return &Evaluator{
		app: app, arch: arch, memo: core.NewMemo(),
		configs: make(map[string]*core.Analysis),
	}
}

// Analyze runs (or recalls) the multi-cluster analysis of cfg. The
// result is bit-identical to core.Analyze. Errors are never cached.
func (ev *Evaluator) Analyze(cfg *core.Config) (*core.Analysis, error) {
	key := ConfigKey(cfg)
	ev.mu.Lock()
	if a, ok := ev.configs[key]; ok {
		ev.hits++
		ev.mu.Unlock()
		return a, nil
	}
	ev.misses++
	ev.mu.Unlock()

	a, err := core.AnalyzeWith(ev.app, ev.arch, cfg, core.AnalyzeOptions{Memo: ev.memo})
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	if len(ev.configs) >= configCap {
		ev.configs = make(map[string]*core.Analysis)
	}
	ev.configs[key] = a
	ev.mu.Unlock()
	return a, nil
}

// Stats reports the evaluator's cache traffic.
type Stats struct {
	// ConfigHits/ConfigMisses count full-configuration memo traffic.
	ConfigHits, ConfigMisses int64
	// Memo holds the stage-cache counters (schedule, RTA, queue).
	Memo core.MemoStats
}

// HitRate is the fraction of Analyze calls served from the
// full-configuration memo (0 when nothing ran yet).
func (s Stats) HitRate() float64 {
	total := s.ConfigHits + s.ConfigMisses
	if total == 0 {
		return 0
	}
	return float64(s.ConfigHits) / float64(total)
}

// StageHitRate is the fraction of stage lookups served from the stage
// caches (0 when nothing ran yet).
func (s Stats) StageHitRate() float64 {
	total := s.Memo.Hits() + s.Memo.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Memo.Hits()) / float64(total)
}

// String renders the stats for diagnostics.
func (s Stats) String() string {
	return fmt.Sprintf("config %d/%d (%.0f%%), stages %d/%d (%.0f%%)",
		s.ConfigHits, s.ConfigHits+s.ConfigMisses, 100*s.HitRate(),
		s.Memo.Hits(), s.Memo.Hits()+s.Memo.Misses(), 100*s.StageHitRate())
}

// Stats returns a snapshot of the counters.
func (ev *Evaluator) Stats() Stats {
	ev.mu.Lock()
	s := Stats{ConfigHits: ev.hits, ConfigMisses: ev.misses}
	ev.mu.Unlock()
	s.Memo = ev.memo.Stats()
	return s
}

// ConfigKey returns the canonical binary encoding of a configuration:
// the TDMA round, then the priority and pin maps in sorted key order.
// Two configurations get the same key exactly when core.AnalyzeWith
// cannot tell them apart.
func ConfigKey(cfg *core.Config) string {
	b := make([]byte, 0, 64+8*(len(cfg.ProcPriority)+len(cfg.MsgPriority)))
	b = binary.AppendVarint(b, int64(len(cfg.Round.Slots)))
	for _, s := range cfg.Round.Slots {
		b = binary.AppendVarint(b, int64(s.Node))
		b = binary.AppendVarint(b, s.Length)
	}
	b = binary.AppendVarint(b, cfg.Round.Padding)
	ids := make([]int, 0, max(len(cfg.ProcPriority), len(cfg.MsgPriority), len(cfg.PinnedProc), len(cfg.PinnedEdge)))
	b = appendSorted(b, ids, cfg.ProcPriority, func(v int) int64 { return int64(v) })
	b = appendSorted(b, ids, cfg.MsgPriority, func(v int) int64 { return int64(v) })
	b = appendSorted(b, ids, cfg.PinnedProc, func(v model.Time) int64 { return v })
	b = appendSorted(b, ids, cfg.PinnedEdge, func(v model.Time) int64 { return v })
	return string(b)
}

// appendSorted appends the length of m and its entries in ascending key
// order, sorting the keys in ids, a scratch buffer with room for them.
func appendSorted[K ~int, V any](b []byte, ids []int, m map[K]V, enc func(V) int64) []byte {
	keys := ids[:0]
	for id := range m {
		keys = append(keys, int(id))
	}
	slices.Sort(keys)
	b = binary.AppendVarint(b, int64(len(keys)))
	for _, id := range keys {
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, enc(m[K(id)]))
	}
	return b
}
