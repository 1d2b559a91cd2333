// Package dse is the multi-objective design-space explorer of the
// reproduction: instead of collapsing the paper's trade-off — OS
// maximizes the degree of schedulability (§5, Fig. 8) while OR
// minimizes the total buffer need s_total (§5, Fig. 7) — to a single
// configuration, Explore searches the same transformation space (the
// §5.1 moves: TDMA slot lengths and order, priority swaps, pins) and
// returns a Pareto front over three objectives: the degree of
// schedulability delta_Gamma, s_total, and the reserved TTP bus
// bandwidth of the round.
//
// The search is an NSGA-II-style population loop: per generation a
// serial rng draws the variation (tournament parents, stacked §5.1
// moves), the offspring are analyzed concurrently by
// engine.EvaluateAll, and the reduction — archive insertion,
// non-dominated sorting, crowding-distance selection — walks the
// evaluations in generation order. Exactly like sa.RunRestarts, the outcome is
// therefore bit-identical for every worker count and fully determined
// by the seed.
//
// Cancelling ctx stops the search at the next evaluation granule; the
// archive's best-so-far front is returned alongside the context's
// error, so interactive callers (mcs-dse, the service's explore jobs)
// never lose finished work.
package dse

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/opt"
)

// Options tunes Explore. Zero values select the documented defaults.
type Options struct {
	// Population is the number of individuals kept per generation and
	// the number of offspring bred per generation (default 16).
	Population int
	// Generations bounds the evolution loop (default 12).
	Generations int
	// MoveBudget is how many §5.1 moves are generated per mutation
	// (default 16); the applied moves are drawn from that sample.
	MoveBudget int
	// MaxMutations caps the moves stacked onto one offspring
	// (default 3; each offspring applies 1..MaxMutations moves).
	MaxMutations int
	// ArchiveCap bounds the all-time non-dominated archive (default
	// DefaultArchiveCap); beyond it the most crowded point is pruned.
	ArchiveCap int
	// Seed drives all randomness (default 1).
	Seed int64
	// Workers bounds the concurrent offspring evaluations (default 1 =
	// serial). The front is bit-identical for every value.
	Workers int
	// SeedPoints are pre-evaluated design points injected into the
	// initial population and the archive without re-analysis (the
	// Solver's warm start feeds the OS/OR results through here). They
	// are archived pinned — capacity pruning never drops them, so the
	// front always weakly dominates every seed point. Their analyses
	// are not counted again in Result.Evaluations.
	SeedPoints []Point
	// Eval analyzes every offspring; it is required. core.Evaluator
	// reuses nothing across configurations; the Solver passes its
	// core.Memo. The variation operators emit §5.1 moves (see mutate),
	// so generations step through move-derived neighbours the Memo can
	// serve from its caches; fronts, hypervolumes and Evaluations counts
	// are identical for every evaluator.
	Eval core.EvalFunc
	// OnProgress, when non-nil, receives one "dse" event per generation
	// (Step 0 for the initial population), emitted from the serial
	// reducing loop; FrontSize and Hypervolume describe the archive.
	OnProgress func(opt.Progress)
}

// Normalize fills the documented defaults into zero values. Explore
// calls it; the service also calls it to key results by the options a
// run actually uses.
func (o *Options) Normalize() {
	if o.Population <= 0 {
		o.Population = 16
	}
	if o.Generations <= 0 {
		o.Generations = 12
	}
	if o.MoveBudget <= 0 {
		o.MoveBudget = 16
	}
	if o.MaxMutations <= 0 {
		o.MaxMutations = 3
	}
	if o.ArchiveCap <= 0 {
		o.ArchiveCap = DefaultArchiveCap
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// Result is the outcome of Explore.
type Result struct {
	// Front is the mutually non-dominated archive, sorted by
	// Objectives.Less.
	Front []Point
	// Evaluations counts the schedulability analyses performed.
	Evaluations int
	// Generations counts the completed generations.
	Generations int
	// Hypervolume is the front's indicator against its Nadir reference.
	Hypervolume float64
}

// individual is one population member with its NSGA-II bookkeeping.
type individual struct {
	Point
	obj   Objectives
	rank  int
	crowd float64
	idx   int // global creation order: the deterministic tie-break
}

// Explore runs the multi-objective search. The front is deterministic
// per seed and identical for every worker count; cancelling ctx
// returns the best-so-far front together with the context's error.
func Explore(ctx context.Context, app *model.Application, arch *model.Architecture, opts Options) (*Result, error) {
	opts.Normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	archive := NewArchive(opts.ArchiveCap)
	res := &Result{}
	nextIdx := 0

	finish := func(err error) (*Result, error) {
		res.Front = archive.Points()
		res.Hypervolume = archive.Hypervolume()
		if len(res.Front) == 0 && err == nil {
			err = fmt.Errorf("dse: no evaluable configuration")
		}
		return res, err
	}

	// evalBatch analyzes a configuration batch on the workers and
	// reduces it in input order: successful analyses are archived and
	// become individuals, unanalyzable candidates are skipped, and a
	// cancellation truncates the batch (stopped = true) keeping what
	// finished.
	evalBatch := func(cfgs []*core.Config) (out []individual, stopped bool) {
		evals, _ := engine.EvaluateAll(ctx, opts.Workers, opts.Eval, cfgs)
		for i, ev := range evals {
			if ev.Err != nil {
				if ctx.Err() != nil && errors.Is(ev.Err, ctx.Err()) {
					return out, true
				}
				continue // unanalyzable candidate: skip
			}
			res.Evaluations++
			p := Point{Config: cfgs[i], Analysis: ev.Analysis}
			archive.Add(p)
			out = append(out, individual{Point: p, obj: p.Objectives(), idx: nextIdx})
			nextIdx++
		}
		return out, false
	}

	// Initial population: the normalized default template and the
	// pre-evaluated seed points.
	baseCfg := core.DefaultConfig(app, arch)
	if err := baseCfg.Normalize(app); err != nil {
		return nil, err
	}
	pop, stopped := evalBatch([]*core.Config{baseCfg})
	for _, p := range opts.SeedPoints {
		archive.AddPinned(p)
		pop = append(pop, individual{Point: p, obj: p.Objectives(), idx: nextIdx})
		nextIdx++
	}
	if stopped || ctx.Err() != nil {
		return finish(ctx.Err())
	}
	if len(pop) == 0 {
		return finish(nil)
	}
	// progress builds the event — hypervolume included — only when an
	// observer is attached, so unobserved runs never pay the indicator.
	progress := func(generation int) {
		if opts.OnProgress == nil {
			return
		}
		opts.OnProgress(opt.Progress{Phase: "dse", Step: generation, Evaluations: res.Evaluations,
			FrontSize: archive.Len(), Hypervolume: archive.Hypervolume()})
	}

	rankAndCrowd(pop)
	progress(0)

	for g := 1; g <= opts.Generations; g++ {
		if ctx.Err() != nil {
			return finish(ctx.Err())
		}
		// Variation is drawn serially from the one rng stream (same
		// sequence as a serial run), then scored in parallel.
		var offspring []*core.Config
		//mcs:allow ctxloop variation is cheap in-memory mutation; the generation loop above and the batch evaluation below both observe ctx
		for i := 0; i < opts.Population; i++ {
			parent := tournament(rng, pop)
			if cfg := mutate(rng, app, arch, parent.Point, &opts); cfg != nil {
				offspring = append(offspring, cfg)
			}
		}
		children, stopped := evalBatch(offspring)
		if stopped {
			return finish(ctx.Err())
		}
		merged := append(pop, children...)
		rankAndCrowd(merged)
		pop = environmental(merged, opts.Population)
		res.Generations = g
		progress(g)
	}
	return finish(ctx.Err())
}

// mutate breeds one offspring: 1..MaxMutations §5.1 moves sampled from
// the parent's neighbourhood, stacked onto its configuration. Returns
// nil when no move applies.
func mutate(rng *rand.Rand, app *model.Application, arch *model.Architecture, parent Point, opts *Options) *core.Config {
	moves := opt.GenerateMoves(app, arch, parent.Config, parent.Analysis,
		opt.MoveBudget{Max: opts.MoveBudget, Rand: rng})
	if len(moves) == 0 {
		return nil
	}
	n := 1 + rng.Intn(opts.MaxMutations)
	cfg := parent.Config
	applied := false
	for i := 0; i < n; i++ {
		mv := moves[rng.Intn(len(moves))]
		next, err := mv.Apply(app, arch, cfg)
		if err != nil {
			continue // structurally impossible on the mutated config
		}
		cfg = next
		applied = true
	}
	if !applied {
		return nil
	}
	return cfg
}

// tournament picks the binary-tournament winner: lower rank, then
// larger crowding distance, then earlier creation.
func tournament(rng *rand.Rand, pop []individual) individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if precedes(a, b) {
		return a
	}
	return b
}

// precedes is the NSGA-II total preference order.
func precedes(a, b individual) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.crowd != b.crowd {
		return a.crowd > b.crowd
	}
	return a.idx < b.idx
}

// rankAndCrowd assigns the non-domination rank and the crowding
// distance of every individual in place (fast non-dominated sort,
// crowding computed per front).
func rankAndCrowd(pop []individual) {
	n := len(pop)
	dominatedBy := make([][]int, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if pop[i].obj.Dominates(pop[j].obj) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if pop[j].obj.Dominates(pop[i].obj) {
				counts[i]++
			}
		}
	}
	var front []int
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			front = append(front, i)
		}
	}
	rank := 0
	for len(front) > 0 {
		objs := make([]Objectives, len(front))
		for k, i := range front {
			pop[i].rank = rank
			objs[k] = pop[i].obj
		}
		crowd := crowding(objs)
		for k, i := range front {
			pop[i].crowd = crowd[k]
		}
		var next []int
		for _, i := range front {
			for _, j := range dominatedBy[i] {
				counts[j]--
				if counts[j] == 0 {
					next = append(next, j)
				}
			}
		}
		front = next
		rank++
	}
}

// environmental selects the best n individuals by (rank, crowding,
// creation order) — the NSGA-II survivor selection, deterministic via
// the idx tie-break.
func environmental(pop []individual, n int) []individual {
	sort.Slice(pop, func(i, j int) bool { return precedes(pop[i], pop[j]) })
	if len(pop) > n {
		pop = pop[:n]
	}
	out := make([]individual, len(pop))
	copy(out, pop)
	return out
}
