package opt

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// BenchmarkGenerateMoves times one neighbourhood at budget 16, cycling
// over the default, OS and OR configurations of gen.Corpus(16, 1, 6).
func BenchmarkGenerateMoves(b *testing.B) {
	fixtures := movesFixtures(b, gen.Corpus(16, 1, 6))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &fixtures[i%len(fixtures)]
		GenerateMoves(f.app, f.arch, f.cfg, f.a, MoveBudget{Max: 16, Rand: rng})
	}
}

// TestGenerateMovesAllocs caps the allocations of one neighbourhood at
// budget 16 on every fixture of BenchmarkGenerateMoves.
func TestGenerateMovesAllocs(t *testing.T) {
	const ceiling = 10
	rng := rand.New(rand.NewSource(1))
	worst := 0.0
	for _, f := range movesFixtures(t, gen.Corpus(16, 1, 6)) {
		worst = max(worst, testing.AllocsPerRun(20, func() {
			GenerateMoves(f.app, f.arch, f.cfg, f.a, MoveBudget{Max: 16, Rand: rng})
		}))
	}
	if worst > ceiling {
		t.Errorf("GenerateMoves: %v allocs per call, want at most %d", worst, ceiling)
	}
}
