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

// BenchmarkMoveApply times Move.Apply of the moves GenerateMoves
// proposes at budget 16 on the default, OS and OR configurations of
// gen.Corpus(16, 1, 6), one sub-benchmark per move family: priority
// swaps (processes and CAN messages) and slot moves (swaps and
// resizes). Each Apply copies the configuration and normalizes it.
func BenchmarkMoveApply(b *testing.B) {
	type applyCase struct {
		f  *movesFixture
		mv Move
	}
	fixtures := movesFixtures(b, gen.Corpus(16, 1, 6))
	var prio, slot []applyCase
	for i := range fixtures {
		f := &fixtures[i]
		for _, mv := range GenerateMoves(f.app, f.arch, f.cfg, f.a, MoveBudget{Max: 16}) {
			switch mv.Kind {
			case MoveSwapProcPrio, MoveSwapMsgPrio:
				prio = append(prio, applyCase{f, mv})
			case MoveSwapSlots, MoveResizeSlot:
				if _, err := mv.Apply(f.app, f.arch, f.cfg); err == nil {
					slot = append(slot, applyCase{f, mv})
				}
			}
		}
	}
	for _, bc := range []struct {
		name  string
		cases []applyCase
	}{{"priority-swap", prio}, {"slot", slot}} {
		b.Run(bc.name, func(b *testing.B) {
			if len(bc.cases) == 0 {
				b.Skip("no moves of this family")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &bc.cases[i%len(bc.cases)]
				if _, err := c.mv.Apply(c.f.app, c.f.arch, c.f.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
