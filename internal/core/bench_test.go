package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// genConfig builds a gen system with 2 TT + 2 ET nodes and 8 forced
// inter-cluster messages, with its normalized default configuration.
func genConfig(tb testing.TB, seed int64, procsPerNode int) (*model.Application, *model.Architecture, *Config) {
	tb.Helper()
	sys, err := gen.Generate(gen.Spec{
		Seed: seed, TTNodes: 2, ETNodes: 2,
		ProcsPerNode: procsPerNode, InterClusterMsgs: 8,
	})
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	cfg := DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		tb.Fatalf("Normalize: %v", err)
	}
	return app, arch, cfg
}

// Allocation ceilings of one analysis of the genConfig(7, 10) system.
// Allocation counts are deterministic, so the ceilings are the measured
// counts: a change that adds an allocation to the Fig. 5 loop fails
// here, and a change that removes some should lower them.
const (
	analyzeColdAllocs = 702
	analyzeMemoAllocs = 810
)

// TestAnalyzeAllocs pins the allocations of a cold Analyze and of an
// AnalyzeWith through a fresh Memo (the cost of a delta-memo miss on a
// never-seen system).
func TestAnalyzeAllocs(t *testing.T) {
	app, arch, cfg := genConfig(t, 7, 10)
	cold := testing.AllocsPerRun(10, func() {
		if _, err := Analyze(app, arch, cfg); err != nil {
			t.Fatal(err)
		}
	})
	memo := testing.AllocsPerRun(10, func() {
		if _, err := AnalyzeWith(app, arch, cfg, AnalyzeOptions{Memo: NewMemo()}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold %v allocs/op, fresh memo %v allocs/op", cold, memo)
	if cold > analyzeColdAllocs {
		t.Errorf("cold Analyze: %v allocs/op, ceiling %d", cold, analyzeColdAllocs)
	}
	if memo > analyzeMemoAllocs {
		t.Errorf("AnalyzeWith(fresh Memo): %v allocs/op, ceiling %d", memo, analyzeMemoAllocs)
	}
}

// benchSizes are the processes-per-node counts of the per-layer
// benchmarks: the benchmark corpus's small systems, the allocation pin's
// system, and the paper's 40.
var benchSizes = []int{4, 10, 40}

// BenchmarkAnalyzeCold times one cold MultiClusterScheduling run.
func BenchmarkAnalyzeCold(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("ppn=%d", n), func(b *testing.B) {
			app, arch, cfg := genConfig(b, 7, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(app, arch, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeMemo times one analysis through a fresh stage memo:
// every stage misses and pays its key encoding and insert.
func BenchmarkAnalyzeMemo(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("ppn=%d", n), func(b *testing.B) {
			app, arch, cfg := genConfig(b, 7, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeWith(app, arch, cfg, AnalyzeOptions{Memo: NewMemo()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
