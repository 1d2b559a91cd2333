package solve

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
)

// The benchmarks below compare the cold-start path (a fresh Solver per
// operation, so a fresh evaluator that has analyzed nothing) with the
// session path (one Solver reused, so its evaluator recalls every
// configuration already analyzed), for the analyze and synthesize
// entry points. CI collects them into the BENCH_solver.json artifact.

func benchSolver(b *testing.B) *Solver {
	b.Helper()
	app, arch := system(b, 1)
	s, err := New(app, arch)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSolverAnalyzeCold builds a fresh session, and so a fresh
// evaluator, per analysis.
func BenchmarkSolverAnalyzeCold(b *testing.B) {
	app, arch := system(b, 1)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(app, arch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Analyze(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverAnalyzeCached reuses one session for every analysis:
// from the second call on, its evaluator recalls the analysis.
func BenchmarkSolverAnalyzeCached(b *testing.B) {
	s := benchSolver(b)
	cfg, err := s.normalizedBase()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Analyze(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSynthesizeCold runs the OS heuristic on a fresh
// session per call: every call analyzes every candidate from scratch.
func BenchmarkSolverSynthesizeCold(b *testing.B) {
	app, arch := system(b, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(app, arch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SynthesizeWith(ctx, OptimizeSchedule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSynthesizeCached runs the OS heuristic on one session:
// from the second call on, every candidate analysis is an evaluator
// hit.
func BenchmarkSolverSynthesizeCached(b *testing.B) {
	s := benchSolver(b)
	ctx := context.Background()
	if _, err := s.SynthesizeWith(ctx, OptimizeSchedule); err != nil {
		b.Fatal(err) // warm the evaluator outside the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SynthesizeWith(ctx, OptimizeSchedule); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSynthesizeDelta runs the full OS+OR pipeline on a fresh session
// per iteration with the incremental delta evaluator off/on. A fresh
// session isolates the intra-run reuse (the slot scan and hill climber
// revisiting configurations and stages) from session-level caching,
// which the Cold/Cached pair above measures. Results are bit-identical
// either way; scripts/benchjson.py pairs the *DeltaOff/*DeltaOn
// results into the delta_speedup section of BENCH_solver.json, with
// the delta_hit_rate metric alongside.
func benchSynthesizeDelta(b *testing.B, useDelta bool) {
	app, arch := system(b, 1)
	ctx := context.Background()
	var stats core.MemoStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(app, arch, WithDelta(useDelta))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SynthesizeWith(ctx, OptimizeResources); err != nil {
			b.Fatal(err)
		}
		if useDelta {
			ds := s.DeltaStats()
			b.ReportMetric(ds.HitRate(), "delta_hit_rate")
			b.ReportMetric(ds.StageHitRate(), "delta_stage_hit_rate")
			stats = ds
		}
	}
	if useDelta && testing.Verbose() {
		b.Logf("%+v", stats)
	}
}

// BenchmarkSolverSynthesizeDeltaOff is the leg that reuses nothing across
// configurations.
func BenchmarkSolverSynthesizeDeltaOff(b *testing.B) { benchSynthesizeDelta(b, false) }

// BenchmarkSolverSynthesizeDeltaOn is the delta-evaluated leg.
func BenchmarkSolverSynthesizeDeltaOn(b *testing.B) { benchSynthesizeDelta(b, true) }

// BenchmarkColdOR is the cold OR loop: a fresh one-worker Solver runs
// OptimizeResources on each of the 64 gen.Corpus(64, 1, 4) systems, so
// every system's evaluator starts empty, as a synth-cold job's does.
// One op is the whole pass over the corpus.
func BenchmarkColdOR(b *testing.B) {
	specs := gen.Corpus(64, 1, 4)
	systems := make([]*model.System, len(specs))
	for i, spec := range specs {
		sys, err := gen.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		systems[i] = sys
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			s, err := New(sys.Application, sys.Architecture, WithWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.SynthesizeWith(ctx, OptimizeResources); err != nil {
				b.Fatal(err)
			}
		}
	}
}
