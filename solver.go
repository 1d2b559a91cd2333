package repro

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/solve"
)

// Solver is a reusable synthesis session for one (application,
// architecture) pair: it owns one exact-keyed incremental evaluator, so
// repeated Analyze/Synthesize/Simulate calls recall every configuration
// already analyzed. Create one with NewSolver; it is safe for
// concurrent use, and every operation is context-first:
//
//	solver, _ := repro.NewSolver(sys.Application, sys.Architecture,
//	    repro.WithStrategy(repro.StrategyOptimizeResources),
//	    repro.WithWorkers(runtime.NumCPU()))
//	res, err := solver.Synthesize(ctx)
//
// Cancelling ctx mid-run returns promptly with the best configuration
// found so far (when one exists) alongside the context's error, so a
// SIGINT never loses finished work. WithObserver streams progress
// (phase, step, evaluations, incumbent quality) while a run executes.
type Solver = solve.Solver

// Option is a functional option for NewSolver.
type Option = solve.Option

// Observer receives synthesis progress events; see WithObserver.
type Observer = solve.Observer

// Progress is one synthesis progress event: the strategy plus the
// optimizer's event (phase, chain, step, evaluations, incumbent
// quality, and the front size and hypervolume of an exploration).
type Progress = solve.Progress

// SolverOptions is the normalized option set of a Solver (inspectable
// via Solver.Options).
type SolverOptions = solve.Options

// Evaluation couples one candidate configuration with its analysis (or
// the analysis error) in a Solver.AnalyzeAll batch.
type Evaluation = engine.Evaluation

// DeltaStats reports the incremental delta-evaluation engine's cache
// counters (see Solver.DeltaStats and WithDelta).
type DeltaStats = core.MemoStats

// NewSolver builds a synthesis session for the application/architecture
// pair. Options normalize exactly once, here: worker counts propagate
// top-down into the nested heuristic options (so they can never
// disagree unless explicitly overridden), and the seed defaults to 1
// for every randomized path.
func NewSolver(app *Application, arch *Architecture, opts ...Option) (*Solver, error) {
	return solve.New(app, arch, opts...)
}

// WithStrategy selects the algorithm run by Solver.Synthesize.
func WithStrategy(s Strategy) Option { return solve.WithStrategy(s) }

// WithSeed seeds every randomized path: the annealing chains and the
// OR neighbourhood sampling (0 keeps the default of 1).
func WithSeed(seed int64) Option { return solve.WithSeed(seed) }

// WithSAIterations bounds each annealing chain (default 300).
func WithSAIterations(n int) Option { return solve.WithSAIterations(n) }

// WithSARestarts sets the number of independent annealing chains for
// the SAS/SAR strategies (default 1); the best-ever solution wins.
func WithSARestarts(n int) Option { return solve.WithSARestarts(n) }

// WithWorkers bounds each evaluation batch of the solver: no batch runs
// more than n analyses at once (default 1 = serial). The synthesized
// configurations are identical for every value.
func WithWorkers(n int) Option { return solve.WithWorkers(n) }

// WithObserver streams progress events to obs while operations run.
func WithObserver(obs Observer) Option { return solve.WithObserver(obs) }

// WithDelta toggles the incremental delta-evaluation engine (on by
// default). Synthesis results are bit-identical either way — the
// differential harness proves it — so turning it off is an escape
// hatch for benchmarking and debugging, not correctness. The CLIs
// expose this as -delta=false.
func WithDelta(on bool) Option { return solve.WithDelta(on) }
