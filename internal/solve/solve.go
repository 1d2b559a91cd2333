// Package solve is the session layer of the reproduction: a Solver is
// created once per (Application, Architecture) pair and owns the one
// thing repeated operations share, the exact-keyed incremental
// evaluator (a core.Memo), so that iterated exploration (the
// service's workload) recalls every configuration and analysis stage
// it has already solved (the service keeps only the configurations of
// a session no job runs on; see Memo). Everything else — the default
// configuration, the slot-length candidates — is recomputed per call,
// which costs microseconds against the milliseconds of one synthesis
// run.
//
// Every operation is context-first and cancellable at evaluation
// granularity: a cancelled Synthesize returns the best configuration
// found so far together with the context's error, so callers (the CLIs
// wire SIGINT into this) never lose finished work. Progress flows to an
// optional Observer as a serialized event stream.
//
// The root package repro re-exports this API; internal consumers
// (package expt) use it directly.
package solve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/sa"
	"repro/internal/sim"
)

// Result couples the configuration chosen by a synthesis run with its
// analysis.
type Result struct {
	Config   *core.Config
	Analysis *core.Analysis
	// Evaluations counts the schedulability analyses performed.
	Evaluations int
}

// Solver is a reusable synthesis session for one (application,
// architecture) pair. It is safe for concurrent use; all methods are
// deterministic per seed and worker-count independent.
type Solver struct {
	app  *model.Application
	arch *model.Architecture
	opts Options

	// ev is the session's incremental evaluator. It carries only
	// configuration-keyed, seed-independent state, so derived sessions
	// (Derive) share it across seeds, strategies and worker counts
	// without perturbing results; sessions built with WithDelta(false)
	// bypass it.
	ev *core.Memo

	obsMu *sync.Mutex // serializes Observer delivery across SA chains
}

// New builds a Solver. Options normalize exactly here (worker counts,
// seeds, iteration budgets); see Options.Normalize.
func New(app *model.Application, arch *model.Architecture, options ...Option) (*Solver, error) {
	if app == nil || arch == nil {
		return nil, fmt.Errorf("solve: nil application or architecture")
	}
	return &Solver{app: app, arch: arch, opts: buildOptions(options), ev: core.NewMemo(app, arch), obsMu: &sync.Mutex{}}, nil
}

// Derive returns a session for the same system with a fresh option set
// (applied to zero Options and normalized exactly like New's), sharing
// the parent's evaluator. The service layer uses it to serve every
// option variant (strategy, seed, budgets, per-job observers) of one
// cached system from one evaluator; results are bit-identical to a
// cold Solver built with the same options.
func (s *Solver) Derive(options ...Option) *Solver {
	return &Solver{app: s.app, arch: s.arch, opts: buildOptions(options), ev: s.ev, obsMu: &sync.Mutex{}}
}

// Application returns the session's application.
func (s *Solver) Application() *model.Application { return s.app }

// Architecture returns the session's architecture.
func (s *Solver) Architecture() *model.Architecture { return s.arch }

// Options returns a copy of the solver's normalized options.
func (s *Solver) Options() Options { return s.opts }

// normalizedBase returns the normalized default configuration, the
// annealers' start point.
func (s *Solver) normalizedBase() (*core.Config, error) {
	cfg := core.DefaultConfig(s.app, s.arch)
	if err := cfg.Normalize(s.app); err != nil {
		return nil, err
	}
	return cfg, nil
}

// eval is the session's analysis function, the one place that picks
// an evaluator: the session's Memo when delta-eval is on (the default),
// core.Evaluator, which reuses nothing across configurations, otherwise.
// Results are bit-identical either way.
func (s *Solver) eval() core.EvalFunc {
	if !s.opts.NoDelta {
		return s.ev.Analyze
	}
	return core.Evaluator(s.app, s.arch)
}

// DeltaStats reports the incremental evaluator's cache counters (zero
// when the session runs with WithDelta(false) or nothing was analyzed
// yet). Derived sessions share the evaluator, so the counters aggregate
// over every session of the system.
func (s *Solver) DeltaStats() core.MemoStats {
	if s.opts.NoDelta {
		return core.MemoStats{}
	}
	return s.ev.Stats()
}

// Memo returns the evaluator s shares with every session derived from
// it, for an owner that bounds the lifetime of its tables (the
// service's Solver cache releases its stage tables between jobs). The
// repro facade does not re-export it, so library sessions keep every
// table until they are dropped.
func Memo(s *Solver) *core.Memo { return s.ev }

// hooks are the OS/OR hooks of one run: progress to the observer,
// analyses through the session evaluator.
func (s *Solver) hooks(strat Strategy) opt.Hooks {
	return opt.Hooks{OnProgress: s.observe(strat, 0), Eval: s.eval()}
}

// orOptions assembles the OR options of one run from the session
// options and the run's hooks (opt hands them on to the OS step).
func (s *Solver) orOptions(strat Strategy) opt.OROptions {
	o := s.opts.OR
	o.Hooks = s.hooks(strat)
	return o
}

// Analyze runs the MultiClusterScheduling fixed point (Fig. 5) for one
// configuration.
func (s *Solver) Analyze(ctx context.Context, cfg *core.Config) (*core.Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.eval()(cfg)
}

// AnalyzeAll analyzes a batch of independent candidate configurations
// on at most the session's Workers goroutines, in input order
// (identical to analyzing them serially); per-configuration failures
// are captured per item.
func (s *Solver) AnalyzeAll(ctx context.Context, cfgs []*core.Config) ([]engine.Evaluation, error) {
	return engine.EvaluateAll(ctx, s.opts.Workers, s.eval(), cfgs)
}

// Simulate executes a configuration in the discrete-event simulator.
// a may be nil, in which case the configuration is analyzed first (one
// extra evaluation).
func (s *Solver) Simulate(ctx context.Context, cfg *core.Config, a *core.Analysis, opts sim.Options) (*sim.Result, error) {
	if a == nil {
		var err error
		if a, err = s.Analyze(ctx, cfg); err != nil {
			return nil, err
		}
	}
	return sim.RunContext(ctx, s.app, s.arch, cfg, a, opts)
}

// Straightforward evaluates the SF baseline from the default template.
func (s *Solver) Straightforward(ctx context.Context) (*opt.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return opt.StraightforwardWith(s.app, s.arch, s.eval())
}

// OptimizeSchedule runs the Fig. 8 slot search with the session's
// options and evaluator, exposing the full internal result (seeds
// included) for experiment sweeps.
func (s *Solver) OptimizeSchedule(ctx context.Context) (*opt.OSResult, error) {
	o := s.opts.OR.OS
	o.Hooks = s.hooks(OptimizeSchedule)
	return opt.OptimizeSchedule(ctx, s.app, s.arch, o)
}

// OptimizeResources runs the Fig. 7 two-step optimization with the
// session's options and evaluator, exposing the full internal
// result (the OS sub-result included) for experiment sweeps.
func (s *Solver) OptimizeResources(ctx context.Context) (*opt.ORResult, error) {
	return opt.OptimizeResources(ctx, s.app, s.arch, s.orOptions(OptimizeResources))
}

// Anneal runs one simulated-annealing chain set from initial under the
// session's options; seed 0 uses the session seed. Experiment sweeps
// use this to build the paper's best-ever SA yardsticks.
func (s *Solver) Anneal(ctx context.Context, obj sa.Objective, initial *core.Config, seed int64, strat Strategy) (*sa.Result, error) {
	if seed == 0 {
		seed = s.opts.Seed
	}
	return sa.RunRestarts(ctx, s.app, s.arch, initial, sa.Options{
		Objective: obj, Iterations: s.opts.SAIterations, Seed: seed,
		Restarts: s.opts.SARestarts, Workers: s.opts.Workers,
		Eval:       s.eval(),
		OnProgress: s.observe(strat, 0),
	})
}

// Synthesize finds a system configuration with the session's configured
// strategy. Cancelling ctx returns promptly — within one evaluation
// granule — with the best configuration found so far (when one exists)
// and the context's error.
func (s *Solver) Synthesize(ctx context.Context) (*Result, error) {
	return s.SynthesizeWith(ctx, s.opts.Strategy)
}

// SynthesizeWith is Synthesize with an explicit strategy, letting one
// session compare algorithms on one evaluator.
func (s *Solver) SynthesizeWith(ctx context.Context, strat Strategy) (*Result, error) {
	switch strat {
	case Straightforward:
		r, err := s.Straightforward(ctx)
		if err != nil {
			return nil, err
		}
		res := &Result{Config: r.Config, Analysis: r.Analysis, Evaluations: 1}
		s.emit(Progress{Strategy: strat, Progress: opt.NewProgress("sf", 0, 1, 1, r)})
		return res, nil

	case OptimizeSchedule:
		r, err := s.OptimizeSchedule(ctx)
		if r == nil || r.Best == nil {
			if err == nil {
				err = fmt.Errorf("solve: OptimizeSchedule found no evaluable configuration")
			}
			return nil, err
		}
		return &Result{Config: r.Best.Config, Analysis: r.Best.Analysis, Evaluations: r.Evaluations}, err

	case OptimizeResources:
		r, err := s.OptimizeResources(ctx)
		if r == nil || r.Best == nil {
			if err == nil {
				err = fmt.Errorf("solve: OptimizeResources found no evaluable configuration")
			}
			return nil, err
		}
		return &Result{Config: r.Best.Config, Analysis: r.Best.Analysis, Evaluations: r.Evaluations}, err

	case SAS, SAR:
		obj := sa.MinimizeDelta
		if strat == SAR {
			obj = sa.MinimizeBuffers
		}
		initial, err := s.normalizedBase()
		if err != nil {
			return nil, err
		}
		r, aerr := s.Anneal(ctx, obj, initial, s.opts.Seed, strat)
		if r == nil || r.Best == nil {
			if aerr == nil {
				aerr = fmt.Errorf("solve: annealing found no evaluable configuration")
			}
			return nil, aerr
		}
		return &Result{Config: r.Best.Config, Analysis: r.Best.Analysis, Evaluations: r.Evaluations}, aerr
	}
	return nil, fmt.Errorf("repro: unknown strategy %v", strat)
}
