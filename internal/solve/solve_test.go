package solve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/sim"
)

// system generates a small two-cluster application for the session
// tests.
func system(t testing.TB, seed int64) (*model.Application, *model.Architecture) {
	t.Helper()
	sys, err := gen.Generate(gen.Spec{Seed: seed, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6, ProcsPerGraph: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sys.Application, sys.Architecture
}

// TestOptionsNormalizeWorkersAgree is the regression test for the old
// facade's forwarding footgun, where Workers was copied into OR.Workers
// and OR.OS.Workers independently and the three could end up disagreeing.
// Normalization happens in exactly one place (New), and the nested
// counts are always the top-level one.
func TestOptionsNormalizeWorkersAgree(t *testing.T) {
	app, arch := system(t, 1)
	cases := []struct {
		name        string
		opts        []Option
		top, or, os int
	}{
		{"defaults", nil, 1, 1, 1},
		{"top-level only", []Option{WithWorkers(8)}, 8, 8, 8},
		{"negative is serial", []Option{WithWorkers(-3)}, 1, 1, 1},
		{"or budgets only", []Option{WithWorkers(8), WithOROptions(opt.OROptions{Workers: 5, OS: opt.OSOptions{Workers: 3}})}, 8, 8, 8},
	}
	for _, c := range cases {
		s, err := New(app, arch, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		o := s.Options()
		if o.Workers != c.top || o.OR.Workers != c.or || o.OR.OS.Workers != c.os {
			t.Errorf("%s: workers (top=%d or=%d os=%d), want (%d, %d, %d)",
				c.name, o.Workers, o.OR.Workers, o.OR.OS.Workers, c.top, c.or, c.os)
		}
		// The invariant the old plumbing violated: the nested counts
		// cannot disagree with the top-level one.
		if o.OR.Workers != o.Workers || o.OR.OS.Workers != o.OR.Workers {
			t.Errorf("%s: nested worker counts disagree: %d/%d/%d", c.name, o.Workers, o.OR.Workers, o.OR.OS.Workers)
		}
	}
}

// TestOptionsSeedCentralized checks the single-point seed defaulting:
// Seed == 0 becomes 1 for every randomized path (annealing and the OR
// neighbourhood sampling), not just inside the SA branch.
func TestOptionsSeedCentralized(t *testing.T) {
	app, arch := system(t, 1)
	zero, err := New(app, arch, WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := zero.Options().Seed; got != 1 {
		t.Errorf("Seed 0 normalized to %d, want 1", got)
	}
	if got := zero.Options().OR.RandSeed; got != 1 {
		t.Errorf("OR.RandSeed inherited %d, want 1", got)
	}
	seeded, err := New(app, arch, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := seeded.Options().OR.RandSeed; got != 7 {
		t.Errorf("OR.RandSeed inherited %d, want the session seed 7", got)
	}
	budgets, err := New(app, arch, WithSeed(7), WithOROptions(opt.OROptions{RandSeed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if got := budgets.Options().OR.RandSeed; got != 7 {
		t.Errorf("WithOROptions set OR.RandSeed to %d, want the session seed 7", got)
	}

	// The default and the explicit seed 1 must behave identically on a
	// randomized strategy.
	ctx := context.Background()
	a, err := zero.SynthesizeWith(ctx, SAS)
	if err != nil {
		t.Fatalf("SAS seed 0: %v", err)
	}
	one, err := New(app, arch, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := one.SynthesizeWith(ctx, SAS)
	if err != nil {
		t.Fatalf("SAS seed 1: %v", err)
	}
	if !reflect.DeepEqual(a.Config, b.Config) || a.Evaluations != b.Evaluations {
		t.Error("seed 0 and seed 1 disagree: the default is not centralized")
	}
}

// TestStrategyRoundTrip: ParseStrategy(s.String()) == s for every
// strategy, and parsing is case-insensitive.
func TestStrategyRoundTrip(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for in, want := range map[string]Strategy{
		"sf": Straightforward, "SF": Straightforward, "Sf": Straightforward,
		"straightforward": Straightforward, "OPTIMIZE-RESOURCES": OptimizeResources,
		"sAs": SAS, "SaR": SAR,
	} {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, want, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("invalid strategy accepted")
	}
	if Strategy(42).String() == "" {
		t.Error("out-of-range strategy has no name")
	}
}

// TestSolverReuseBitIdentical: repeated Synthesize calls on one session
// are bit-identical to fresh one-shot sessions, for every strategy —
// the shared evaluator must never leak into the results.
func TestSolverReuseBitIdentical(t *testing.T) {
	app, arch := system(t, 2)
	ctx := context.Background()
	shared, err := New(app, arch, WithSAIterations(30))
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range Strategies() {
		fresh, err := New(app, arch, WithSAIterations(30))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SynthesizeWith(ctx, strat)
		if err != nil {
			t.Fatalf("%v fresh: %v", strat, err)
		}
		for i := 0; i < 3; i++ {
			got, err := shared.SynthesizeWith(ctx, strat)
			if err != nil {
				t.Fatalf("%v reuse %d: %v", strat, i, err)
			}
			if !reflect.DeepEqual(got.Config, want.Config) {
				t.Errorf("%v reuse %d: config differs from a fresh session", strat, i)
			}
			if !reflect.DeepEqual(got.Analysis, want.Analysis) {
				t.Errorf("%v reuse %d: analysis differs from a fresh session", strat, i)
			}
			if got.Evaluations != want.Evaluations {
				t.Errorf("%v reuse %d: %d evaluations, fresh did %d", strat, i, got.Evaluations, want.Evaluations)
			}
		}
	}
}

// TestSolverParallelBitIdentical: the session inherits the engine's
// determinism contract — WithWorkers(N) equals WithWorkers(1).
func TestSolverParallelBitIdentical(t *testing.T) {
	app, arch := system(t, 3)
	ctx := context.Background()
	serial, err := New(app, arch, WithSAIterations(30), WithSARestarts(3))
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(app, arch, WithSAIterations(30), WithSARestarts(3), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range Strategies() {
		a, err := serial.SynthesizeWith(ctx, strat)
		if err != nil {
			t.Fatalf("%v serial: %v", strat, err)
		}
		b, err := par.SynthesizeWith(ctx, strat)
		if err != nil {
			t.Fatalf("%v parallel: %v", strat, err)
		}
		if !reflect.DeepEqual(a.Config, b.Config) || a.Evaluations != b.Evaluations {
			t.Errorf("%v: parallel session differs from serial", strat)
		}
	}
}

// TestObserverStream checks the WithObserver progress stream: events
// arrive, steps advance monotonically per phase, evaluation counters
// never decrease, and the stream is serialized.
func TestObserverStream(t *testing.T) {
	app, arch := system(t, 2)
	var mu sync.Mutex
	var events []Progress
	obs := func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}
	s, err := New(app, arch, WithObserver(obs), WithSAIterations(20))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, strat := range []Strategy{Straightforward, OptimizeSchedule, OptimizeResources, SAS} {
		events = nil
		if _, err := s.SynthesizeWith(ctx, strat); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(events) == 0 {
			t.Fatalf("%v: no progress events", strat)
		}
		lastEvals := map[string]int{}
		lastStep := map[string]int{}
		for _, e := range events {
			if e.Strategy != strat {
				t.Fatalf("%v: event with strategy %v", strat, e.Strategy)
			}
			key := e.Phase
			if e.Phase == "sa" {
				key = "sa" + string(rune(e.Chain))
			}
			if e.Step <= lastStep[key] {
				t.Fatalf("%v/%s: step %d after %d", strat, e.Phase, e.Step, lastStep[key])
			}
			if e.Evaluations < lastEvals[key] {
				t.Fatalf("%v/%s: evaluations went backwards", strat, e.Phase)
			}
			lastStep[key], lastEvals[key] = e.Step, e.Evaluations
		}
	}
}

// TestSynthesizeCancellation: cancelling mid-run returns promptly with
// a best-so-far result and leaks no goroutines.
func TestSynthesizeCancellation(t *testing.T) {
	app, arch := system(t, 2)
	before := runtime.NumGoroutine()

	for _, strat := range []Strategy{OptimizeSchedule, OptimizeResources, SAS} {
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel from inside the progress stream, after the first
		// reduction step — guaranteed mid-run.
		fired := false
		obs := func(Progress) {
			if !fired {
				fired = true
				cancel()
			}
		}
		s, err := New(app, arch, WithObserver(obs), WithWorkers(4), WithSAIterations(500), WithSARestarts(4))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := s.SynthesizeWith(ctx, strat)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", strat, err)
		}
		if res == nil || res.Config == nil || res.Analysis == nil {
			t.Fatalf("%v: no best-so-far result after cancellation", strat)
		}
		if elapsed > 10*time.Second {
			t.Errorf("%v: cancellation took %v", strat, elapsed)
		}
	}

	// Pre-cancelled contexts return immediately with no work done.
	s, err := New(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SynthesizeWith(ctx, Straightforward); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled SF: err = %v", err)
	}

	// All pool goroutines must have drained: poll because workers that
	// observed the cancellation may still be parking.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSimulateCancellation: the simulator honors the session context.
func TestSimulateCancellation(t *testing.T) {
	app, arch := system(t, 2)
	s, err := New(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SynthesizeWith(context.Background(), OptimizeSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Analysis.Schedulable {
		t.Skip("seed 2 unschedulable under OS")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Simulate(ctx, res.Config, res.Analysis, sim0()); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate with cancelled ctx: err = %v", err)
	}
	if _, err := s.Simulate(context.Background(), res.Config, nil, sim0()); err != nil {
		t.Errorf("Simulate with nil analysis: %v", err)
	}
}

func sim0() sim.Options { return sim.Options{Cycles: 1} }

// TestObservedSharesCachesStreamsOwnEvents checks the derived-session
// contract behind the service layer's per-job observers: a session
// derived with its own observer shares the parent's evaluator, streams
// events only to its own observer, and synthesizes a result
// bit-identical to the parent's.
func TestObservedSharesCachesStreamsOwnEvents(t *testing.T) {
	app, arch := system(t, 3)
	var parentEvents []Progress
	parent, err := New(app, arch,
		WithStrategy(OptimizeResources),
		WithObserver(func(p Progress) { parentEvents = append(parentEvents, p) }))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := parent.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parentSeen := len(parentEvents)
	if parentSeen == 0 {
		t.Fatal("parent observer saw no events")
	}

	var derivedEvents []Progress
	derived := parent.Derive(WithStrategy(OptimizeResources),
		WithObserver(func(p Progress) { derivedEvents = append(derivedEvents, p) }))
	if derived.ev != parent.ev {
		t.Error("derived session does not share the parent's evaluator")
	}
	got, err := derived.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("derived session result differs from parent's")
	}
	if len(derivedEvents) == 0 {
		t.Error("derived observer saw no events")
	}
	if len(parentEvents) != parentSeen {
		t.Errorf("derived run leaked %d events into the parent observer", len(parentEvents)-parentSeen)
	}
}

// TestDeriveBitIdenticalToColdSolver checks the service layer's
// evaluator-sharing contract: a session derived from a base Solver with a
// fresh option set produces results bit-identical to a cold Solver
// built with those options, for every strategy, while sharing the
// base's evaluator.
func TestDeriveBitIdenticalToColdSolver(t *testing.T) {
	app, arch := system(t, 2)
	base, err := New(app, arch) // plain base, as the service caches it
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, strat := range Strategies() {
		opts := []Option{WithStrategy(strat), WithSeed(7), WithSAIterations(40), WithSARestarts(2)}
		derived := base.Derive(opts...)
		if derived.ev != base.ev {
			t.Fatalf("%v: derived session does not share the base evaluator", strat)
		}
		cold, err := New(app, arch, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(derived.Options(), cold.Options()) {
			t.Fatalf("%v: derived options %+v differ from cold options %+v", strat, derived.Options(), cold.Options())
		}
		got, err := derived.Synthesize(ctx)
		if err != nil {
			t.Fatalf("%v: derived: %v", strat, err)
		}
		want, err := cold.Synthesize(ctx)
		if err != nil {
			t.Fatalf("%v: cold: %v", strat, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: derived result differs from cold Solver", strat)
		}
	}
}
