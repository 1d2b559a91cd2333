package opt

import (
	"context"
	"errors"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hopa"
	"repro/internal/model"
	"repro/internal/tsched"
)

// Result couples a configuration with its analysis.
type Result struct {
	Config   *core.Config
	Analysis *core.Analysis
}

// Progress is one progress event of a synthesis run, the one shape
// every optimizer emits: OS and OR here, the annealer (package sa) and
// the design-space explorer (package dse). Events are emitted in step
// order per phase, from the goroutine that reduces the phase's
// batches; with several annealing chains, Chain tells the interleaved
// events apart.
type Progress struct {
	// Phase is the algorithm stage: "sf", "os" (slot search), "or"
	// (hill climbing), "sa" (annealing) or "dse" (design-space
	// exploration generations).
	Phase string
	// Chain is the annealing chain index (0 outside "sa").
	Chain int
	// Step is the per-phase step counter: the TDMA position for "os",
	// the hill-climbing iteration for "or", the annealing iteration for
	// "sa", the generation for "dse" (0 for the initial population).
	Step int
	// Evaluations counts the schedulability analyses spent so far in
	// this phase (per chain for "sa").
	Evaluations int
	// BestDelta, BestBuffers and Schedulable describe the incumbent
	// solution (of the emitting chain for "sa"; zero until a candidate
	// survives analysis). A Pareto exploration has no single
	// incumbent, so "dse" events leave them zero and report
	// FrontSize/Hypervolume instead.
	BestDelta   model.Time
	BestBuffers int
	Schedulable bool
	// FrontSize and Hypervolume describe the archive of a "dse" phase
	// (zero elsewhere).
	FrontSize   int
	Hypervolume float64
}

// NewProgress is the event of a phase that tracks one incumbent, best
// (nil until a candidate survives analysis).
func NewProgress(phase string, chain, step, evaluations int, best *Result) Progress {
	p := Progress{Phase: phase, Chain: chain, Step: step, Evaluations: evaluations}
	if best != nil {
		p.BestDelta, p.BestBuffers, p.Schedulable = best.Delta(), best.STotal(), best.Schedulable()
	}
	return p
}

// Hooks carries an optimizer run's evaluator and instrumentation.
type Hooks struct {
	// OnProgress, when non-nil, receives one event per reduction step.
	OnProgress func(Progress)
	// Eval analyzes every candidate, HOPA's included; it is required.
	// core.Evaluator reuses nothing across configurations; a session
	// passes its core.Memo. Evaluation counters count the
	// analyses the optimizers request, not what Eval recomputes, so
	// reported Evaluations are identical for every evaluator.
	Eval core.EvalFunc
}

func (h *Hooks) progress(phase string, step, evaluations int, best *Result) {
	if h.OnProgress != nil {
		h.OnProgress(NewProgress(phase, 0, step, evaluations, best))
	}
}

// canceled reports whether err is the batch-wide cancellation of ctx
// (as opposed to a genuine per-candidate analysis failure).
func canceled(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
}

// Delta is the degree of schedulability of the result.
func (r *Result) Delta() model.Time { return r.Analysis.Delta }

// STotal is the total buffer need of the result.
func (r *Result) STotal() int { return r.Analysis.Buffers.Total }

// Schedulable reports the analysis verdict.
func (r *Result) Schedulable() bool { return r.Analysis.Schedulable }

// evaluateWith analyzes a configuration through the run's evaluator.
func evaluateWith(eval core.EvalFunc, cfg *core.Config) (*Result, error) {
	a, err := eval(cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Config: cfg, Analysis: a}, nil
}

// StraightforwardWith is the SF baseline of §6, analyzed through eval:
// nodes allocated to the TDMA slots in ascending architecture order,
// slot lengths fixed at the minimum that accommodates the largest
// message of each node, priorities left at their declaration order,
// and the system scheduled by MultiClusterScheduling. Priority
// optimization (HOPA) is part of OptimizeSchedule, not of the baseline
// (§5.1).
func StraightforwardWith(app *model.Application, arch *model.Architecture, eval core.EvalFunc) (*Result, error) {
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		return nil, err
	}
	return evaluateWith(eval, cfg)
}

// OSOptions tunes OptimizeSchedule.
type OSOptions struct {
	// HOPAIterations per candidate configuration (default
	// hopa.DefaultIterations).
	HOPAIterations int
	// SlotCandidates caps the recommended lengths tried per slot
	// (default 3).
	SlotCandidates int
	// Workers bounds the concurrent candidate evaluations (default 1 =
	// serial). The result is identical for every value: candidates are
	// generated up front and reduced in order.
	Workers int
	// Hooks carries the run's evaluator (required) and progress hook.
	Hooks Hooks
}

func (o *OSOptions) defaults() {
	if o.SlotCandidates <= 0 {
		o.SlotCandidates = 3
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// OSResult is the outcome of OptimizeSchedule.
type OSResult struct {
	// Best is the configuration with the smallest delta_Gamma.
	Best *Result
	// Seeds are the recorded seed solutions for OptimizeResources,
	// ordered best-delta first, deduplicated.
	Seeds []*Result
	// Evaluations counts the multi-cluster analyses performed.
	Evaluations int
}

// osCandidate is one (owner, length) candidate of the Fig. 8 slot
// search, described as the typed moves that derive it from the
// position's shared parent configuration (a swap bringing slot j into
// position i, then an absolute length assignment).
type osCandidate struct {
	j     int        // slot index swapped into position i
	l     model.Time // candidate length of position i
	moves []Move
}

// osEval is the evaluation of one candidate: the analyzed result plus
// the analyses HOPA spent finding the priorities.
type osEval struct {
	r         *Result
	hopaEvals int
}

// OptimizeSchedule is the greedy heuristic of Fig. 8: slot by slot it
// chooses the owner and the slot length that maximize the degree of
// schedulability, with HOPA priorities per candidate, recording the best
// configurations (by delta and by s_total) as seeds for the second step.
//
// The candidates of each position are independent, so they are
// evaluated on at most opts.Workers goroutines; the reduction walks
// them in generation order, which makes the outcome identical to the
// serial walk for any worker count.
//
// Cancelling ctx stops the search at the next evaluation granule: the
// returned OSResult then carries the best configuration and the seeds
// found so far, together with ctx's error.
func OptimizeSchedule(ctx context.Context, app *model.Application, arch *model.Architecture, opts OSOptions) (*OSResult, error) {
	opts.defaults()
	base := core.DefaultConfig(app, arch)
	res := &OSResult{}
	var seeds []*Result

	partial := func(best *Result) (*OSResult, error) {
		res.Best = best
		res.Seeds = selectSeeds(seeds, seedLimit)
		return res, ctx.Err()
	}

	round := base.Round.Clone()
	var best *Result
	for i := range round.Slots {
		if ctx.Err() != nil {
			return partial(best)
		}
		// Generate the full candidate batch for position i up front, as
		// typed moves against the position's shared parent (the running
		// best round on the base template).
		parent := base.Clone()
		parent.Round = round.Clone()
		var cands []osCandidate
		//mcs:allow ctxloop candidate generation is cheap in-memory setup; the position loop checks ctx and the batch evaluation is ctx-aware
		for j := i; j < len(round.Slots); j++ {
			lengths := tsched.RecommendedSlotLengths(app, arch, round.Slots[j].Node, opts.SlotCandidates)
			for _, l := range lengths {
				var mvs []Move
				if j != i {
					mvs = append(mvs, Move{Kind: MoveSwapSlots, Slot: i, Slot2: j})
				}
				mvs = append(mvs, Move{Kind: MoveSetSlotLen, Slot: i, Length: l})
				cands = append(cands, osCandidate{j: j, l: l, moves: mvs})
			}
		}

		// Fan the derivation + HOPA + analysis work out to the workers.
		evals, _ := engine.Map(ctx, opts.Workers, len(cands), func(_ context.Context, k int) (osEval, error) {
			cfg := parent
			for _, mv := range cands[k].moves {
				next, err := mv.Apply(app, arch, cfg)
				if err != nil {
					return osEval{}, err
				}
				cfg = next
			}
			pr, err := hopa.Assign(app, arch, cfg.Round, opts.HOPAIterations, opts.Hooks.Eval)
			if err != nil {
				return osEval{}, err
			}
			full := cfg.Clone()
			full.ProcPriority = pr.ProcPriority
			full.MsgPriority = pr.MsgPriority
			if err := full.Normalize(app); err != nil {
				return osEval{hopaEvals: pr.Evaluations}, err
			}
			r, err := evaluateWith(opts.Hooks.Eval, full)
			if err != nil {
				return osEval{hopaEvals: pr.Evaluations}, err
			}
			return osEval{r: r, hopaEvals: pr.Evaluations}, nil
		})

		// Reduce in candidate order, exactly like the serial loop.
		bestAt := -1
		var bestLen model.Time
		var bestRes *Result
		for k, ev := range evals {
			if ev.Err != nil {
				if canceled(ctx, ev.Err) {
					// Keep what this position already evaluated and
					// stop: best-so-far beats nothing at all.
					if bestRes != nil && (best == nil || better(bestRes, best)) {
						best = bestRes
					}
					return partial(best)
				}
				return nil, ev.Err
			}
			res.Evaluations += ev.Value.hopaEvals + 1
			r := ev.Value.r
			seeds = append(seeds, r)
			if bestRes == nil || better(r, bestRes) {
				bestRes = r
				bestAt = cands[k].j
				bestLen = cands[k].l
			}
		}
		if bestAt >= 0 {
			round.Slots[i], round.Slots[bestAt] = round.Slots[bestAt], round.Slots[i]
			round.Slots[i].Length = bestLen
		}
		if bestRes != nil && (best == nil || better(bestRes, best)) {
			best = bestRes
		}
		opts.Hooks.progress("os", i+1, res.Evaluations, best)
	}
	res.Best = best
	res.Seeds = selectSeeds(seeds, seedLimit)
	return res, nil
}

// better orders results by degree of schedulability, breaking ties with
// the buffer need.
func better(a, b *Result) bool {
	if a.Delta() != b.Delta() {
		return a.Delta() < b.Delta()
	}
	return a.STotal() < b.STotal()
}

// seedLimit caps OptimizeSchedule's seed_solutions list.
const seedLimit = 6

// selectSeeds keeps the most promising seed solutions, at most limit:
// the best by delta (highly schedulable systems survive more
// hill-climbing moves) and, among the schedulable ones, the best by
// s_total (§5.1).
func selectSeeds(all []*Result, limit int) []*Result {
	if len(all) == 0 {
		return nil
	}
	byDelta := append([]*Result(nil), all...)
	sort.SliceStable(byDelta, func(i, j int) bool { return better(byDelta[i], byDelta[j]) })
	var bySTotal []*Result
	for _, r := range all {
		if r.Schedulable() {
			bySTotal = append(bySTotal, r)
		}
	}
	sort.SliceStable(bySTotal, func(i, j int) bool {
		if bySTotal[i].STotal() != bySTotal[j].STotal() {
			return bySTotal[i].STotal() < bySTotal[j].STotal()
		}
		return bySTotal[i].Delta() < bySTotal[j].Delta()
	})
	var seeds []*Result
	seen := make(map[*core.Config]bool)
	take := func(r *Result) {
		if len(seeds) >= limit || seen[r.Config] {
			return
		}
		seen[r.Config] = true
		seeds = append(seeds, r)
	}
	half := (limit + 1) / 2
	for i := 0; i < len(bySTotal) && i < half; i++ {
		take(bySTotal[i])
	}
	for _, r := range byDelta {
		take(r)
	}
	return seeds
}

// OROptions tunes OptimizeResources.
type OROptions struct {
	OS OSOptions
	// MaxIterations caps the hill-climbing steps per seed (default 40).
	MaxIterations int
	// NeighborBudget caps the moves evaluated per step (default 24).
	NeighborBudget int
	// Seeds caps the number of seed solutions explored (default 4).
	Seeds int
	// RandSeed drives the sampled share of the neighbourhood.
	RandSeed int64
	// Workers bounds the concurrent neighbour evaluations (default 1 =
	// serial; forwarded to the OS step unless OS.Workers is set). The
	// hill-climbing outcome is identical for every value.
	Workers int
	// Hooks carries the run's evaluator (required) and progress hook;
	// the OS step runs with the same Hooks.
	Hooks Hooks
}

func (o *OROptions) defaults() {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.OS.Workers <= 0 {
		o.OS.Workers = o.Workers
	}
	o.OS.Hooks = o.Hooks
	o.OS.defaults()
	if o.MaxIterations <= 0 {
		o.MaxIterations = 40
	}
	if o.NeighborBudget <= 0 {
		o.NeighborBudget = 24
	}
	if o.Seeds <= 0 {
		o.Seeds = 4
	}
	if o.RandSeed == 0 {
		o.RandSeed = 1
	}
}

// ORResult is the outcome of OptimizeResources.
type ORResult struct {
	// Best is the schedulable configuration with the smallest s_total
	// (or the best-effort OS result when nothing schedulable exists).
	Best *Result
	// OS is the first-step result.
	OS *OSResult
	// Evaluations counts all analyses, including the OS step.
	Evaluations int
	// Improved tells whether hill climbing reduced s_total below the
	// best OS seed.
	Improved bool
}

// OptimizeResources is the two-step resource optimization of Fig. 7:
// first OptimizeSchedule finds schedulable seed solutions, then a
// hill-climbing loop performs the §5.1 moves, accepting only schedulable
// neighbours that strictly reduce s_total.
//
// Cancelling ctx stops the climb at the next evaluation granule: the
// returned ORResult then carries the best configuration found so far,
// together with ctx's error.
func OptimizeResources(ctx context.Context, app *model.Application, arch *model.Architecture, opts OROptions) (*ORResult, error) {
	opts.defaults()
	osres, err := OptimizeSchedule(ctx, app, arch, opts.OS)
	if err != nil {
		if osres == nil || osres.Best == nil {
			return nil, err
		}
		// Cancelled mid-OS: surface the best-effort OS result.
		return &ORResult{OS: osres, Best: osres.Best, Evaluations: osres.Evaluations}, err
	}
	out := &ORResult{OS: osres, Best: osres.Best, Evaluations: osres.Evaluations}
	if osres.Best == nil || !osres.Best.Schedulable() {
		// The paper's step 1 failure path ("modify mapping and/or
		// architecture") is outside our scope: report best effort.
		return out, ctx.Err()
	}
	rng := rand.New(rand.NewSource(opts.RandSeed))
	best := osres.Best
	step := 0
	for si, seed := range osres.Seeds {
		if si >= opts.Seeds {
			break
		}
		if !seed.Schedulable() {
			continue
		}
		cur := seed
		for it := 0; it < opts.MaxIterations; it++ {
			if ctx.Err() != nil {
				out.Best = best
				return out, ctx.Err()
			}
			// The neighbourhood is drawn serially (one rng stream, same
			// sequence as the serial climber), then scored in parallel:
			// the typed moves derive each neighbour from the shared
			// incumbent inside the batch.
			moves := GenerateMoves(app, arch, cur.Config, cur.Analysis, MoveBudget{Max: opts.NeighborBudget, Rand: rng})
			evals, _ := engine.Map(ctx, opts.Workers, len(moves), func(_ context.Context, k int) (*Result, error) {
				cfg, err := moves[k].Apply(app, arch, cur.Config)
				if err != nil {
					return nil, err
				}
				return evaluateWith(opts.Hooks.Eval, cfg)
			})
			var chosen *Result
			for _, ev := range evals {
				if ev.Err != nil {
					continue // impossible move, unanalyzable or cancelled
				}
				r := ev.Value
				out.Evaluations++
				if !r.Schedulable() {
					continue
				}
				if r.STotal() < cur.STotal() && (chosen == nil || r.STotal() < chosen.STotal()) {
					chosen = r
				}
			}
			if chosen == nil {
				break
			}
			cur = chosen
			if cur.STotal() < best.STotal() || (cur.STotal() == best.STotal() && cur.Delta() < best.Delta()) {
				best = cur
				out.Improved = true
			}
			step++
			opts.Hooks.progress("or", step, out.Evaluations, best)
		}
	}
	out.Best = best
	// A cancellation that lands while a neighbourhood batch is being
	// scored truncates the scan ("no improving neighbour" is then
	// unprovable), so a cancelled climb always reports ctx's error with
	// its best-so-far rather than posing as a completed run.
	return out, ctx.Err()
}
