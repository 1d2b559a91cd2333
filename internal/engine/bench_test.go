// Benchmarks for the acceptance criterion of the engine: an expt sweep
// with -workers=NumCPU must beat -workers=1 by >= 2x wall-clock on a
// machine with >= 4 cores. Run with:
//
//	go test -bench Fig9a -benchtime 2x ./internal/engine/
//
// The package is engine_test (not engine) so it can drive the real
// consumer, repro/internal/expt, without an import cycle.
package engine_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/opt"
)

// sweepOptions is a Fig. 9a-shaped sweep sized so one serial run takes
// seconds, not minutes: one size, eight generated applications, short
// SA (eight cells pack evenly onto the 4- and 8-core machines the
// speedup test targets).
func sweepOptions(workers int) expt.Options {
	return expt.Options{
		Sizes:        []int{2},
		Seeds:        8,
		SAIterations: 60,
		OR:           opt.OROptions{MaxIterations: 4, NeighborBudget: 8, Seeds: 2},
		Workers:      workers,
	}
}

func benchmarkFig9a(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig9a(context.Background(), sweepOptions(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9aSweepSerial is the -workers=1 baseline.
func BenchmarkFig9aSweepSerial(b *testing.B) { benchmarkFig9a(b, 1) }

// BenchmarkFig9aSweepParallel runs the same sweep with -workers=NumCPU.
func BenchmarkFig9aSweepParallel(b *testing.B) { benchmarkFig9a(b, runtime.NumCPU()) }

// BenchmarkMapOverhead measures the engine's per-item dispatch cost on
// trivial work, serial vs parallel (the fan-out floor).
func BenchmarkMapOverhead(b *testing.B) {
	fn := func(_ context.Context, j int) (int, error) { return j, nil }
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Map(context.Background(), 1, 1024, fn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Map(context.Background(), runtime.NumCPU(), 1024, fn); err != nil {
				b.Fatal(err)
			}
		}
	})
}
