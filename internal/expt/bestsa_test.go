package expt

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sa"
)

// TestBestSAAnnealsThroughSession: the SA yardsticks anneal through the
// cell session, so the session's evaluator sees every analysis of both
// chains, not only the SF start.
func TestBestSAAnnealsThroughSession(t *testing.T) {
	ctx := context.Background()
	sys, err := gen.Generate(gen.Spec{Seed: 5, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6, ProcsPerGraph: 6})
	if err != nil {
		t.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	opts := tiny()
	opts.defaults()
	sv, err := cellSolver(app, arch, &opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	osres, err := sv.OptimizeSchedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sv.Straightforward(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lookups := func(s core.MemoStats) int64 { return s.ConfigHits + s.ConfigMisses }
	before := lookups(sv.DeltaStats())
	if _, err := bestSA(ctx, sv, osres.Best, sa.MinimizeBuffers, 3); err != nil {
		t.Fatal(err)
	}
	grew := lookups(sv.DeltaStats()) - before

	// Replay the two chains bestSA runs through the reference evaluator
	// to count their analyses.
	chains := 0
	for i, init := range []*core.Config{sf.Config, osres.Best.Config} {
		r, err := sa.Run(ctx, app, arch, init, sa.Options{
			Objective: sa.MinimizeBuffers, Iterations: opts.SAIterations, Seed: 3 + int64(i),
			Eval: core.Evaluator(app, arch),
		})
		if err != nil {
			t.Fatal(err)
		}
		chains += r.Evaluations
	}
	if grew < int64(chains) {
		t.Errorf("session evaluator saw %d lookups during bestSA, want at least the chains' %d evaluations", grew, chains)
	}
}
