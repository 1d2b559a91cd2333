// Package delta is the incremental delta-evaluation engine: an
// Evaluator is a core.Memo bound to one (application, architecture)
// pair, so the synthesis loops' thousands of candidate configurations
// per run — each differing from a parent by a single §5.1 move — reuse
// the unchanged parts of the analysis instead of recomputing them.
//
// The Memo's four exact-keyed tables (whole analyses, TT schedules,
// per-resource RTA fixed points and OutTTP queues; see core.Memo) are
// all bit-identical to the cold path: re-visited configurations cost
// one lookup, and a move that touches one cluster changes exactly that
// cluster's stage keys while every other resource keeps hitting. New
// binds the Memo to its pair once; the Memo builds the pair's
// configuration-independent analysis frame on its first miss and
// recycles each analysis's scratch, so a miss pays only for what the
// new configuration changes.
//
// Because every table is exact-keyed, an Evaluator can be shared across
// seeds, strategies and worker counts without breaking the repo-wide
// determinism invariants; the differential harness (differential_test.go
// at the repository root) replays every strategy with the engine on and
// off and asserts byte-identical results.
package delta

import (
	"repro/internal/core"
	"repro/internal/model"
)

// Evaluator is the incremental evaluator for one (application,
// architecture) pair. It is safe for concurrent use by the workers of
// an evaluation batch. Returned *core.Analysis values are shared across
// callers and must be treated as read-only, which every consumer in
// this repository already does.
type Evaluator struct {
	memo *core.Memo
}

// New builds an Evaluator for app and arch.
func New(app *model.Application, arch *model.Architecture) *Evaluator {
	return &Evaluator{memo: core.NewMemo(app, arch)}
}

// Analyze runs (or recalls) the multi-cluster analysis of cfg. The
// result is bit-identical to core.Analyze. Errors are never cached.
func (ev *Evaluator) Analyze(cfg *core.Config) (*core.Analysis, error) {
	return ev.memo.Analyze(cfg)
}

// Stats reports the evaluator's cache traffic per table.
type Stats = core.MemoStats

// Stats returns a snapshot of the counters.
func (ev *Evaluator) Stats() Stats { return ev.memo.Stats() }

// ConfigKey is core.ConfigKey, the key of the whole-analysis table.
func ConfigKey(cfg *core.Config) string { return core.ConfigKey(cfg) }
