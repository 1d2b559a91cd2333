package sa

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestRunRestartsParallelEqualsSerial checks that the multi-chain
// annealer returns the same best-ever solution and the same counters
// for every worker count.
func TestRunRestartsParallelEqualsSerial(t *testing.T) {
	app, arch := fig4(t)
	initial := core.DefaultConfig(app, arch)
	if err := initial.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	base := Options{Objective: MinimizeBuffers, Iterations: 60, Seed: 2, Restarts: 4, Eval: core.Evaluator(app, arch)}
	serialOpts := base
	serialOpts.Workers = 1
	serial, err := RunRestarts(context.Background(), app, arch, initial, serialOpts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		parOpts := base
		parOpts.Workers = workers
		par, err := RunRestarts(context.Background(), app, arch, initial, parOpts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Evaluations != serial.Evaluations || par.Accepted != serial.Accepted {
			t.Errorf("workers=%d: evals=%d accepted=%d, serial evals=%d accepted=%d",
				workers, par.Evaluations, par.Accepted, serial.Evaluations, serial.Accepted)
		}
		if !reflect.DeepEqual(par.Best.Config, serial.Best.Config) {
			t.Errorf("workers=%d: best config differs from serial", workers)
		}
	}
}

// TestRunRestartsImprovesOnSingleChain checks the point of restarts:
// with several chains the best-ever cost is never worse than the first
// chain's, and the evaluation counter aggregates all chains.
func TestRunRestartsImprovesOnSingleChain(t *testing.T) {
	app, arch := fig4(t)
	initial := core.DefaultConfig(app, arch)
	if err := initial.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	one, err := RunRestarts(context.Background(), app, arch, initial, Options{Objective: MinimizeBuffers, Iterations: 60, Seed: 2, Eval: core.Evaluator(app, arch)})
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunRestarts(context.Background(), app, arch, initial, Options{Objective: MinimizeBuffers, Iterations: 60, Seed: 2, Restarts: 4, Workers: 4, Eval: core.Evaluator(app, arch)})
	if err != nil {
		t.Fatal(err)
	}
	if cost(MinimizeBuffers, many.Best) > cost(MinimizeBuffers, one.Best) {
		t.Errorf("4 restarts cost %v, single chain %v", cost(MinimizeBuffers, many.Best), cost(MinimizeBuffers, one.Best))
	}
	if many.Evaluations <= one.Evaluations {
		t.Errorf("4 restarts did %d evaluations, single chain %d", many.Evaluations, one.Evaluations)
	}
}
