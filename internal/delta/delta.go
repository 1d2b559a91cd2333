// Package delta is a thin shim over core.Memo, the incremental
// evaluator. Production code uses core.Memo directly; this package
// remains only because the benchmark harness (_mcsbench/replay.go)
// compiles against it, and it goes with the next change to that
// harness.
package delta

import (
	"repro/internal/core"
	"repro/internal/model"
)

// Evaluator is core.Memo.
type Evaluator = core.Memo

// New is core.NewMemo.
func New(app *model.Application, arch *model.Architecture) *Evaluator {
	return core.NewMemo(app, arch)
}

// ConfigKey is core.ConfigKey.
func ConfigKey(cfg *core.Config) string { return core.ConfigKey(cfg) }
