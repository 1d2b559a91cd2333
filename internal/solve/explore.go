package solve

import (
	"context"
	"errors"

	"repro/internal/dse"
	"repro/internal/opt"
)

// DSEOptions tunes Solver.Explore. Zero values select the dse package
// defaults; the seed defaults to the session seed. The options are
// per-call (unlike the session Options) so one Solver can serve many
// exploration budgets from one evaluator.
type DSEOptions struct {
	// Population and Generations bound the NSGA-II loop (defaults 16
	// and 12).
	Population  int
	Generations int
	// MoveBudget is the §5.1 moves sampled per mutation (default 16);
	// MaxMutations caps the moves stacked per offspring (default 3).
	MoveBudget   int
	MaxMutations int
	// ArchiveCap bounds the non-dominated archive (default
	// dse.DefaultArchiveCap).
	ArchiveCap int
	// Seed drives the exploration randomness (0 = the session seed).
	Seed int64
	// WarmStart runs the OS/OR heuristics first and injects their
	// results into the initial population and the archive, so the front
	// always weakly dominates the paper's single-objective optima.
	// Enabled by default; WithWarmStart(false) disables it for a pure
	// from-scratch exploration.
	WarmStart bool
}

// DSEOption mutates the DSEOptions of one Explore call.
type DSEOption func(*DSEOptions)

// WithPopulation sets the NSGA-II population size.
func WithPopulation(n int) DSEOption { return func(o *DSEOptions) { o.Population = n } }

// WithGenerations bounds the exploration generations.
func WithGenerations(n int) DSEOption { return func(o *DSEOptions) { o.Generations = n } }

// WithMoveBudget sets how many §5.1 moves are sampled per mutation.
func WithMoveBudget(n int) DSEOption { return func(o *DSEOptions) { o.MoveBudget = n } }

// WithMaxMutations caps the moves stacked onto one offspring.
func WithMaxMutations(n int) DSEOption { return func(o *DSEOptions) { o.MaxMutations = n } }

// WithArchiveCap bounds the non-dominated archive.
func WithArchiveCap(n int) DSEOption { return func(o *DSEOptions) { o.ArchiveCap = n } }

// WithExploreSeed seeds the exploration rng (0 keeps the session seed).
func WithExploreSeed(seed int64) DSEOption { return func(o *DSEOptions) { o.Seed = seed } }

// WithWarmStart toggles the OS/OR warm start (on by default).
func WithWarmStart(on bool) DSEOption { return func(o *DSEOptions) { o.WarmStart = on } }

// Explore runs the multi-objective design-space exploration (package
// dse) on the session: instead of a single configuration it returns a
// Pareto front over (degree of schedulability, total buffer need,
// reserved TTP bus bandwidth). The exploration analyzes through the
// session's evaluator, streams "dse" progress events to the session
// observer, and is bit-identical for every worker count under a fixed
// seed.
//
// By default the search warm-starts from the paper's single-objective
// heuristics: OptimizeResources runs first (with the session's OR
// options) and its results — the OR optimum, the OS optimum and the OS
// seed solutions — are injected into the initial population and the
// archive. The returned front therefore always contains points
// that weakly dominate both the OS-only and the OR-only results;
// Result.Evaluations includes the warm start's analyses.
//
// Cancelling ctx returns the best-so-far front (even mid-warm-start)
// together with the context's error.
func (s *Solver) Explore(ctx context.Context, options ...DSEOption) (*dse.Result, error) {
	o := DSEOptions{WarmStart: true}
	for _, fn := range options {
		if fn != nil {
			fn(&o)
		}
	}
	if o.Seed == 0 {
		o.Seed = s.opts.Seed
	}

	warmEvals := 0
	var warmPoints []dse.Point
	if o.WarmStart {
		orres, err := opt.OptimizeResources(ctx, s.app, s.arch, s.orOptions(Explore))
		if orres != nil {
			warmEvals = orres.Evaluations
			collect := func(r *opt.Result) {
				if r != nil {
					warmPoints = append(warmPoints, dse.Point{Config: r.Config, Analysis: r.Analysis})
				}
			}
			collect(orres.Best)
			if orres.OS != nil {
				collect(orres.OS.Best)
				for _, sd := range orres.OS.Seeds {
					collect(sd)
				}
			}
		}
		// A cancelled warm start hands its partial results on: dse
		// archives them and returns them as the best-so-far front with
		// the context's error.
		if err != nil && !errors.Is(err, ctx.Err()) {
			return nil, err
		}
	}

	res, err := dse.Explore(ctx, s.app, s.arch, dse.Options{
		Population:   o.Population,
		Generations:  o.Generations,
		MoveBudget:   o.MoveBudget,
		MaxMutations: o.MaxMutations,
		ArchiveCap:   o.ArchiveCap,
		Seed:         o.Seed,
		Workers:      s.opts.Workers,
		SeedPoints:   warmPoints,
		Eval:         s.eval(),
		OnProgress:   s.observe(Explore, warmEvals),
	})
	if res != nil {
		res.Evaluations += warmEvals
	}
	return res, err
}
