package repro

import (
	"repro/internal/dse"
	"repro/internal/solve"
)

// Design-space exploration: Solver.Explore searches the paper's
// transformation space (§5.1 moves over TDMA slots, priorities and
// pins) for a Pareto front over three minimized objectives — the
// degree of schedulability delta_Gamma, the total buffer need s_total,
// and the reserved TTP bus bandwidth of the round — instead of the
// single configuration Synthesize returns. See package dse for the
// search (an NSGA-II-style population loop, bit-identical for every
// worker count under a fixed seed) and cmd/mcs-dse for the CLI.
type (
	// ExploreResult is the outcome of Solver.Explore: the front, the
	// analysis count, and the hypervolume indicator.
	ExploreResult = dse.Result
	// ParetoPoint is one evaluated front point (configuration +
	// analysis).
	ParetoPoint = dse.Point
	// ParetoObjectives is the three-objective vector of a point.
	ParetoObjectives = dse.Objectives
	// ParetoArchive maintains a bounded mutually non-dominated set with
	// CSV/JSON export; NewParetoArchive builds one.
	ParetoArchive = dse.Archive
	// DSEOption tunes one Solver.Explore call.
	DSEOption = solve.DSEOption
)

// StrategyExplore labels the progress stream of Solver.Explore; it is
// not a Synthesize strategy (explorations return fronts, not single
// configurations), so Strategies() excludes it.
const StrategyExplore = solve.Explore

// NewParetoArchive returns an empty bounded non-dominated archive
// (cap <= 0 selects dse.DefaultArchiveCap).
func NewParetoArchive(cap int) *ParetoArchive { return dse.NewArchive(cap) }

// Hypervolume computes the 3-D dominated hypervolume of an objective
// set against a reference point (all objectives minimized).
func Hypervolume(objs []ParetoObjectives, ref ParetoObjectives) float64 {
	return dse.Hypervolume(objs, ref)
}

// BusBandwidth returns the reserved TTP transmission time per TDMA
// round of a configuration (the slot-length sum, padding excluded) —
// the third exploration objective.
func BusBandwidth(cfg *Config) Time { return dse.Bandwidth(cfg) }

// WithPopulation sets the exploration population size (default 16).
func WithPopulation(n int) DSEOption { return solve.WithPopulation(n) }

// WithGenerations bounds the exploration generations (default 12).
func WithGenerations(n int) DSEOption { return solve.WithGenerations(n) }

// WithMoveBudget sets the §5.1 moves sampled per mutation (default 16).
func WithMoveBudget(n int) DSEOption { return solve.WithMoveBudget(n) }

// WithMaxMutations caps the moves stacked per offspring (default 3).
func WithMaxMutations(n int) DSEOption { return solve.WithMaxMutations(n) }

// WithArchiveCap bounds the non-dominated archive.
func WithArchiveCap(n int) DSEOption { return solve.WithArchiveCap(n) }

// WithExploreSeed seeds the exploration rng (0 keeps the session seed).
func WithExploreSeed(seed int64) DSEOption { return solve.WithExploreSeed(seed) }

// WithWarmStart toggles the OS/OR warm start (on by default; when on,
// the front always weakly dominates the single-objective results).
func WithWarmStart(on bool) DSEOption { return solve.WithWarmStart(on) }
