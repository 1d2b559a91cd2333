package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Result is one item of a batch: the value produced for Index, or the
// error that item ran into. Items never fail the whole batch — callers
// decide per item, in index order.
type Result[T any] struct {
	Index int
	Value T
	Err   error
}

// Map runs fn(ctx, i) for every i in [0, n) with at most workers
// concurrent calls and returns the n results in index order. workers
// <= 0 selects runtime.NumCPU(); workers == 1 runs the batch on the
// calling goroutine in index order, spawning nothing. Every call starts
// its own goroutines, so the bound holds per batch, not per process.
// Each item's error is captured in its Result; the returned error is
// non-nil only when ctx was cancelled, in which case items that never
// started carry ctx.Err().
//
// fn must be safe for concurrent invocation and must not depend on the
// completion of other indices; under those conditions the returned
// slice is identical to a serial loop's, regardless of the worker
// count.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	out := make([]Result[T], n)
	for i := range out {
		out[i].Index = i
	}
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	observeBatch(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				for ; i < n; i++ {
					out[i].Err = err
				}
				return out, err
			}
			out[i].Value, out[i].Err = fn(ctx, i)
		}
		return out, ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					out[i].Err = err
					continue
				}
				out[i].Value, out[i].Err = fn(ctx, i)
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// Evaluation couples one candidate configuration with its analysis (or
// the analysis error).
type Evaluation struct {
	Config   *core.Config
	Analysis *core.Analysis
	Err      error
}

// Schedulable reports the analysis verdict (false when the analysis
// failed).
func (e *Evaluation) Schedulable() bool { return e.Err == nil && e.Analysis.Schedulable }

// EvaluateAll analyzes every candidate configuration through eval on
// at most workers goroutines and returns the evaluations in candidate
// order. Each configuration must be an independent value (as produced
// by Config.Clone or Move.Apply).
func EvaluateAll(ctx context.Context, workers int, eval core.EvalFunc, cfgs []*core.Config) ([]Evaluation, error) {
	results, err := Map(ctx, workers, len(cfgs), func(_ context.Context, i int) (*core.Analysis, error) {
		return eval(cfgs[i])
	})
	out := make([]Evaluation, len(cfgs))
	for i, r := range results {
		out[i] = Evaluation{Config: cfgs[i], Analysis: r.Value, Err: r.Err}
	}
	return out, err
}
