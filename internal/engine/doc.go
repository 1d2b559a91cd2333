// Package engine is the concurrent evaluation engine of the synthesis
// flow: batch primitives that fan independent (configuration ->
// analysis) evaluations out across at most a given number of goroutines
// while keeping every result bit-identical to a serial run.
//
// The paper's algorithms spend almost all of their time in
// core.Analyze, and every call site evaluates *batches* of independent
// candidates: OptimizeSchedule tries slot owners and lengths (Fig. 8),
// OptimizeResources scores neighbourhood moves (Fig. 7 / §5.1), the
// simulated-annealing baselines of §6 run independent restart chains,
// and the evaluation sweeps of §6 analyze hundreds of generated
// applications. Such design-space sweeps are embarrassingly parallel
// (cf. parametric schedulability analysis, Sun et al.), so the engine
// exposes exactly two batch primitives:
//
//   - Map: run fn(i) for i in [0, n) on at most workers goroutines and
//     return the results in index order, one captured error per item;
//   - EvaluateAll: Map specialized to a core.EvalFunc over candidate
//     configurations.
//
// EvaluateAll analyzes through the caller's core.EvalFunc: core.Evaluator,
// which reuses nothing across configurations, or a session's core.Memo.
// The engine has no evaluator of its own.
//
// The worker count is the only concurrency setting. It bounds each
// batch on its own: every call starts its own goroutines and there is
// no process-wide pool, so concurrent batches (say, several service
// jobs) each run up to their own bound.
//
// Determinism is the contract that makes the engine safe to drop into
// the published heuristics: callers generate the full candidate batch
// up front (fixing every random draw before the fan-out), the engine
// writes each result into its own slot, and callers reduce in index
// order. The outcome is therefore identical to the serial loop for a
// fixed seed, regardless of GOMAXPROCS or the -workers setting.
//
// Cancellation is cooperative via context.Context: once the context is
// cancelled, unstarted items complete immediately with ctx.Err() as
// their per-item error and the batch call reports the context error.
package engine
