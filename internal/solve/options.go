package solve

import (
	"repro/internal/opt"
)

// Options is the normalized configuration of a Solver. Zero values are
// filled in by normalize — exactly once, in New — so every consumer
// (heuristics, annealers, experiment sweeps) sees the same defaults
// and the same nested worker counts.
type Options struct {
	// Strategy selects the algorithm run by Synthesize (default
	// Straightforward).
	Strategy Strategy
	// Seed drives every randomized path: the annealing chains and the
	// OR neighbourhood sampling (default 1).
	Seed int64
	// SAIterations bounds each annealing chain (default 300).
	SAIterations int
	// SARestarts is the number of independent annealing chains for the
	// SAS/SAR strategies (default 1); the best-ever solution wins.
	SARestarts int
	// Workers bounds each evaluation batch of the solver: no batch runs
	// more than Workers analyses at once (default 1 = serial; results
	// are identical for every value).
	Workers int
	// OR tunes the OptimizeSchedule/OptimizeResources budgets. Its
	// run-wide settings (OR.Workers, OR.OS.Workers, OR.RandSeed) are
	// always the top-level Workers and Seed.
	OR opt.OROptions
	// NoDelta disables the incremental delta-evaluation engine (the
	// session's core.Memo): every analysis then runs through
	// core.Evaluator, which reuses nothing across configurations. The
	// zero value keeps delta-eval ON — it is bit-identical either way
	// (the differential harness proves it), so the escape hatch exists
	// for benchmarking and debugging, not correctness (the CLIs expose
	// it as -delta=false).
	NoDelta bool
	// Observer, when non-nil, receives progress events.
	Observer Observer
}

// Normalize fills defaults and resolves every nested option from the
// top-level ones. New calls it, so constructed Solvers always see
// normalized options; the service layer also calls it directly to
// derive canonical cache keys from request fields. After it returns,
// Workers, OR.Workers and OR.OS.Workers agree and OR.RandSeed is Seed.
func (o *Options) Normalize() {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SAIterations <= 0 {
		o.SAIterations = 300
	}
	if o.SARestarts <= 0 {
		o.SARestarts = 1
	}
	o.OR.Workers, o.OR.OS.Workers = o.Workers, o.Workers
	o.OR.RandSeed = o.Seed
}

// Option mutates the Options of a Solver under construction.
type Option func(*Options)

// buildOptions applies options to zero Options and normalizes them.
func buildOptions(options []Option) Options {
	var o Options
	for _, fn := range options {
		if fn != nil {
			fn(&o)
		}
	}
	o.Normalize()
	return o
}

// WithStrategy selects the algorithm run by Synthesize.
func WithStrategy(s Strategy) Option { return func(o *Options) { o.Strategy = s } }

// WithSeed seeds every randomized path (0 keeps the default of 1).
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithSAIterations bounds each annealing chain.
func WithSAIterations(n int) Option { return func(o *Options) { o.SAIterations = n } }

// WithSARestarts sets the number of independent annealing chains.
func WithSARestarts(n int) Option { return func(o *Options) { o.SARestarts = n } }

// WithWorkers bounds each evaluation batch of the solver; the
// synthesized configurations are identical for every value.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithObserver streams progress events to obs.
func WithObserver(obs Observer) Option { return func(o *Options) { o.Observer = obs } }

// WithDelta toggles the incremental delta-evaluation engine (on by
// default; results are bit-identical either way).
func WithDelta(on bool) Option { return func(o *Options) { o.NoDelta = !on } }

// WithOROptions tunes the OS/OR budgets (iteration caps, HOPA and
// slot-candidate budgets, neighbour budgets). Worker counts and the
// random seed come from WithWorkers and WithSeed.
func WithOROptions(or opt.OROptions) Option { return func(o *Options) { o.OR = or } }
