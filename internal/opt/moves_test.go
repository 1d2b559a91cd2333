package opt

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
)

// generateMovesDigest pins GenerateMoves bit for bit; see
// TestGenerateMovesDigest.
const generateMovesDigest = "6d95b3f037c404ce"

// movesFixture is one configuration of a corpus member with its
// analysis, the input of one GenerateMoves call.
type movesFixture struct {
	app  *model.Application
	arch *model.Architecture
	cfg  *core.Config
	a    *core.Analysis
}

// movesFixtures returns, for every member of specs, the normalized
// default configuration and the OS and OR results, each analyzed.
func movesFixtures(tb testing.TB, specs []gen.Spec) []movesFixture {
	tb.Helper()
	var out []movesFixture
	for i, spec := range specs {
		sys, err := gen.Generate(spec)
		if err != nil {
			tb.Fatalf("corpus member %d: %v", i, err)
		}
		app, arch := sys.Application, sys.Architecture
		memo := core.NewMemo(app, arch)
		hooks := Hooks{Eval: memo.Analyze}
		cfg := core.DefaultConfig(app, arch)
		if err := cfg.Normalize(app); err != nil {
			tb.Fatalf("member %d: Normalize: %v", i, err)
		}
		a, err := memo.Analyze(cfg)
		if err != nil {
			tb.Fatalf("member %d: Analyze: %v", i, err)
		}
		out = append(out, movesFixture{app, arch, cfg, a})
		osr, err := OptimizeSchedule(context.Background(), app, arch, OSOptions{Hooks: hooks})
		if err != nil {
			tb.Fatalf("member %d: OptimizeSchedule: %v", i, err)
		}
		out = append(out, movesFixture{app, arch, osr.Best.Config, osr.Best.Analysis})
		orr, err := OptimizeResources(context.Background(), app, arch, OROptions{Hooks: hooks})
		if err != nil {
			tb.Fatalf("member %d: OptimizeResources: %v", i, err)
		}
		out = append(out, movesFixture{app, arch, orr.Best.Config, orr.Best.Analysis})
	}
	return out
}

// TestGenerateMovesDigest pins the neighbourhood bit for bit over every
// member of gen.Corpus(12, 1, 6) at its default, OS and OR
// configurations, at budgets 12, 16 and 24, with a nil and a seeded
// Rand: it hashes the String of every returned move, in order, and
// after a seeded call the Rand's next draw, so a change to the move
// order or to the draws GenerateMoves makes shows.
func TestGenerateMovesDigest(t *testing.T) {
	h := sha256.New()
	var b []byte
	for _, f := range movesFixtures(t, gen.Corpus(12, 1, 6)) {
		for _, max := range []int{12, 16, 24} {
			for _, seeded := range []bool{false, true} {
				budget := MoveBudget{Max: max}
				if seeded {
					budget.Rand = rand.New(rand.NewSource(int64(max)))
				}
				moves := GenerateMoves(f.app, f.arch, f.cfg, f.a, budget)
				b = binary.AppendUvarint(b[:0], uint64(len(moves)))
				for _, m := range moves {
					b = append(b, m.String()...)
					b = append(b, 0)
				}
				if seeded {
					b = binary.AppendVarint(b, budget.Rand.Int63())
				}
				h.Write(b)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != generateMovesDigest {
		t.Errorf("GenerateMoves digest %s, want %s", got, generateMovesDigest)
	}
}
