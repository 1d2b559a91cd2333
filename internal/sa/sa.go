// Package sa implements the simulated-annealing reference optimizers of
// §6: SA Schedule (SAS), tuned to minimize the degree of schedulability
// delta_Gamma, and SA Resources (SAR), tuned to minimize the total
// buffer need s_total. Both walk the same §5.1 move space as
// OptimizeResources; with long schedules their best-ever solutions serve
// as the near-optimal yardsticks of the paper's evaluation.
package sa

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/opt"
)

// Objective selects the cost function.
type Objective int

const (
	// MinimizeDelta is SAS: cost = delta_Gamma.
	MinimizeDelta Objective = iota
	// MinimizeBuffers is SAR: cost = s_total for schedulable systems,
	// with a large schedulability penalty otherwise.
	MinimizeBuffers
)

// Options tunes the annealer.
type Options struct {
	Objective Objective
	// Iterations is the total number of evaluated moves (default 300).
	Iterations int
	// Seed drives all randomness (default 1).
	Seed int64
	// Restarts is the number of independent annealing chains run by
	// RunRestarts, seeded Seed, Seed+1, ... (default 1). An annealing
	// chain is inherently sequential, so restarts are the unit of
	// parallelism.
	Restarts int
	// Workers bounds the concurrently running chains (default 1 =
	// serial). The best-ever result is identical for every value.
	Workers int
	// Eval analyzes every configuration of the chains; it is required.
	// core.Evaluator reuses nothing across configurations; the Solver
	// passes its core.Memo. Results and Evaluations counts are identical
	// for every evaluator; with the Memo, successive chain steps share
	// the parent state through its caches.
	Eval core.EvalFunc
	// OnProgress, when non-nil, receives one "sa" event per evaluated
	// move: Step is the iteration and the incumbent is the chain's
	// best-ever solution. With several restart chains the callback runs
	// concurrently and must be safe for concurrent use; Chain tells the
	// events apart.
	OnProgress func(opt.Progress)
}

// The acceptance schedule: the temperature starts at initialTemp and
// is multiplied by cooling every epoch moves; each step draws one of
// moveBudget generated candidate moves.
const (
	initialTemp = 1000.0
	cooling     = 0.95
	epoch       = 10
	moveBudget  = 16
)

func (o *Options) defaults() {
	if o.Iterations <= 0 {
		o.Iterations = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// Result is the annealing outcome.
type Result struct {
	// Best is the best-ever configuration under the chosen objective.
	Best *opt.Result
	// Evaluations counts the analyses performed.
	Evaluations int
	// Accepted counts accepted moves (diagnostics).
	Accepted int
}

// unschedulablePenalty dominates every realistic s_total so that SAR
// never trades schedulability for buffers.
const unschedulablePenalty = 1 << 40

// cost maps an analysis to the annealing cost.
func cost(obj Objective, r *opt.Result) float64 {
	switch obj {
	case MinimizeDelta:
		return float64(r.Delta())
	default:
		if !r.Schedulable() {
			return unschedulablePenalty + float64(r.Delta())
		}
		return float64(r.STotal())
	}
}

// Run anneals from the given initial configuration. The initial
// configuration must be normalized and valid.
//
// Cancelling ctx stops the chain at the next iteration: the returned
// Result then carries the best-ever solution found so far, together
// with ctx's error.
func Run(ctx context.Context, app *model.Application, arch *model.Architecture, initial *core.Config, opts Options) (*Result, error) {
	return runChain(ctx, app, arch, initial, opts, 0)
}

func runChain(ctx context.Context, app *model.Application, arch *model.Architecture, initial *core.Config, opts Options, chain int) (*Result, error) {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	curA, err := opts.Eval(initial)
	if err != nil {
		return nil, err
	}
	cur := &opt.Result{Config: initial, Analysis: curA}
	best := cur
	res := &Result{Best: best, Evaluations: 1}
	temp := initialTemp
	for it := 0; it < opts.Iterations; it++ {
		if ctx.Err() != nil {
			res.Best = best
			return res, ctx.Err()
		}
		moves := opt.GenerateMoves(app, arch, cur.Config, cur.Analysis, opt.MoveBudget{Max: moveBudget, Rand: rng})
		if len(moves) == 0 {
			break
		}
		mv := moves[rng.Intn(len(moves))]
		cfg, err := mv.Apply(app, arch, cur.Config)
		if err != nil {
			continue // impossible move: try another
		}
		a, err := opts.Eval(cfg)
		if err != nil {
			continue
		}
		res.Evaluations++
		cand := &opt.Result{Config: cfg, Analysis: a}
		dc := cost(opts.Objective, cand) - cost(opts.Objective, cur)
		if dc <= 0 || rng.Float64() < math.Exp(-dc/temp) {
			cur = cand
			res.Accepted++
		}
		if cost(opts.Objective, cand) < cost(opts.Objective, best) {
			best = cand
		}
		if (it+1)%epoch == 0 {
			temp *= cooling
			if temp < 1e-6 {
				temp = 1e-6
			}
		}
		if opts.OnProgress != nil {
			opts.OnProgress(opt.NewProgress("sa", chain, it+1, res.Evaluations, best))
		}
	}
	res.Best = best
	return res, nil
}

// RunRestarts anneals opts.Restarts independent chains from the same
// initial configuration, seeded opts.Seed, opts.Seed+1, ..., on at
// most opts.Workers goroutines, and returns the best-ever result over
// all chains (ties broken by the lowest chain index, so the outcome is
// deterministic for every worker count). Evaluations and
// Accepted are summed over the chains.
//
// Cancelling ctx stops every chain at its next iteration; the returned
// Result aggregates the chains' best-so-far solutions and carries
// ctx's error (Best is nil only when no chain completed a single
// analysis).
func RunRestarts(ctx context.Context, app *model.Application, arch *model.Architecture, initial *core.Config, opts Options) (*Result, error) {
	opts.defaults()
	if opts.Restarts == 1 {
		return Run(ctx, app, arch, initial, opts)
	}
	chains, _ := engine.Map(ctx, opts.Workers, opts.Restarts, func(ctx context.Context, i int) (*Result, error) {
		chainOpts := opts
		chainOpts.Seed = opts.Seed + int64(i)
		chainOpts.Restarts, chainOpts.Workers = 1, 1
		return runChain(ctx, app, arch, initial, chainOpts, i)
	})
	out := &Result{}
	for _, c := range chains {
		r := c.Value
		if c.Err != nil {
			if ctx.Err() != nil && errors.Is(c.Err, ctx.Err()) {
				if r == nil {
					continue // chain never started
				}
				// Aggregate the chain's best-so-far below.
			} else {
				return nil, c.Err
			}
		}
		out.Evaluations += r.Evaluations
		out.Accepted += r.Accepted
		if out.Best == nil || cost(opts.Objective, r.Best) < cost(opts.Objective, out.Best) {
			out.Best = r.Best
		}
	}
	return out, ctx.Err()
}
