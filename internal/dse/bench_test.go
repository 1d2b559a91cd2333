package dse

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// benchmarkExplore measures one exploration configuration and reports
// the front quality next to the wall-clock: scripts/benchjson.py picks
// the front_size and hypervolume metrics up into BENCH_dse.json, so the
// artifact answers "what does the explorer return and how fast" per
// worker count in one place. The front is bit-identical across worker
// counts, so front_size and hypervolume must agree between the
// Workers1/WorkersMax variants — only ns/op may differ.
func benchmarkExplore(b *testing.B, workers int) {
	sys, err := gen.Generate(gen.Spec{Seed: 3, TTNodes: 2, ETNodes: 2, ProcsPerNode: 8, ProcsPerGraph: 8})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Population: 12, Generations: 6, Seed: 3, Workers: workers,
		Eval: core.Evaluator(sys.Application, sys.Architecture)}
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = Explore(context.Background(), sys.Application, sys.Architecture, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Front)), "front_size")
	b.ReportMetric(res.Hypervolume, "hypervolume")
	b.ReportMetric(float64(res.Evaluations), "evaluations")
}

func BenchmarkExploreWorkers1(b *testing.B) { benchmarkExplore(b, 1) }

func BenchmarkExploreWorkersMax(b *testing.B) { benchmarkExplore(b, runtime.NumCPU()) }

// benchmarkExploreDelta measures the same serial exploration with the
// incremental delta evaluator off/on. A fresh evaluator per iteration
// isolates the intra-run reuse (offspring colliding, stage caches
// across mutations) from session-level warm caches; the fronts are
// bit-identical either way, so only ns/op and the reported
// delta_hit_rate may differ. scripts/benchjson.py pairs the
// *DeltaOff/*DeltaOn results into the delta_speedup section of
// BENCH_dse.json.
func benchmarkExploreDelta(b *testing.B, useDelta bool) {
	sys, err := gen.Generate(gen.Spec{Seed: 3, TTNodes: 2, ETNodes: 2, ProcsPerNode: 8, ProcsPerGraph: 8})
	if err != nil {
		b.Fatal(err)
	}
	var stats core.MemoStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{Population: 12, Generations: 6, Seed: 3, Eval: core.Evaluator(sys.Application, sys.Architecture)}
		var ev *core.Memo
		if useDelta {
			ev = core.NewMemo(sys.Application, sys.Architecture)
			opts.Eval = ev.Analyze
		}
		if _, err := Explore(context.Background(), sys.Application, sys.Architecture, opts); err != nil {
			b.Fatal(err)
		}
		if ev != nil {
			stats = ev.Stats()
		}
	}
	if useDelta {
		b.ReportMetric(stats.HitRate(), "delta_hit_rate")
		b.ReportMetric(stats.StageHitRate(), "delta_stage_hit_rate")
	}
}

func BenchmarkExploreDeltaOff(b *testing.B) { benchmarkExploreDelta(b, false) }

func BenchmarkExploreDeltaOn(b *testing.B) { benchmarkExploreDelta(b, true) }
