package solve

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestDeriveSharesDeltaCache pins the session-sharing contract of the
// incremental evaluator: Derive variants (new seeds, strategies,
// worker counts) reuse the parent's evaluator — its counters aggregate
// across sessions and repeated synthesis hits the config memo — while
// producing results bit-identical to a cold Solver with the same
// options.
func TestDeriveSharesDeltaCache(t *testing.T) {
	app, arch := system(t, 3)
	ctx := context.Background()
	parent, err := New(app, arch, WithSAIterations(20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.SynthesizeWith(ctx, OptimizeSchedule); err != nil {
		t.Fatal(err)
	}
	after := parent.DeltaStats()
	if after.ConfigMisses == 0 {
		t.Fatalf("parent OS run never reached the evaluator: %v", after)
	}

	// A derived variant shares the evaluator: its traffic lands in the
	// same counters, and the parent's cached work serves its lookups.
	derived := parent.Derive(WithSeed(9), WithSAIterations(20), WithWorkers(4))
	got, err := derived.SynthesizeWith(ctx, OptimizeSchedule)
	if err != nil {
		t.Fatal(err)
	}
	shared := derived.DeltaStats()
	if shared.ConfigHits <= after.ConfigHits {
		t.Errorf("derived OS replay missed the shared config memo: %v -> %v", after, shared)
	}
	if parent.DeltaStats() != shared {
		t.Error("parent and derived sessions report different evaluator counters")
	}

	// Bit-identity: a cold Solver with the derived options agrees.
	cold, err := New(app, arch, WithSeed(9), WithSAIterations(20), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.SynthesizeWith(ctx, OptimizeSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("derived session result differs from a cold solver's")
	}
}

// TestDeriveNoDeltaDoesNotShare: a WithDelta(false) variant must bypass
// the shared evaluator entirely — zero stats, no counter movement on
// the parent beyond its own traffic — and still produce the identical
// synthesis result.
func TestDeriveNoDeltaDoesNotShare(t *testing.T) {
	app, arch := system(t, 2)
	ctx := context.Background()
	parent, err := New(app, arch, WithSAIterations(15))
	if err != nil {
		t.Fatal(err)
	}
	want, err := parent.SynthesizeWith(ctx, SAS)
	if err != nil {
		t.Fatal(err)
	}
	before := parent.DeltaStats()

	off := parent.Derive(WithDelta(false), WithSAIterations(15))
	if off.DeltaStats() != (core.MemoStats{}) {
		t.Errorf("delta-off session reports evaluator stats: %v", off.DeltaStats())
	}
	got, err := off.SynthesizeWith(ctx, SAS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("delta-off result differs from the delta-on parent's")
	}
	if parent.DeltaStats() != before {
		t.Errorf("delta-off run moved the shared counters: %v -> %v", before, parent.DeltaStats())
	}
	if off.DeltaStats() != (core.MemoStats{}) {
		t.Errorf("delta-off session accumulated evaluator stats: %v", off.DeltaStats())
	}
}

// TestDeriveDeltaConcurrent runs several derived option-variant
// sessions against the shared evaluator at once; under -race (the CI
// race job runs this package) it is the cross-session data-race
// coverage for the delta cache.
func TestDeriveDeltaConcurrent(t *testing.T) {
	app, arch := system(t, 3)
	ctx := context.Background()
	parent, err := New(app, arch, WithSAIterations(15))
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		strat Strategy
		opts  []Option
	}
	variants := []variant{
		{Straightforward, []Option{WithSeed(2), WithSAIterations(15)}},
		{OptimizeSchedule, []Option{WithSeed(3), WithSAIterations(15), WithWorkers(2)}},
		{SAS, []Option{WithSeed(4), WithSAIterations(15)}},
		{SAR, []Option{WithSeed(5), WithSAIterations(15), WithWorkers(3)}},
		{OptimizeSchedule, []Option{WithSeed(6), WithSAIterations(15), WithDelta(false)}},
	}
	results := make([]*Result, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := parent.Derive(v.opts...).SynthesizeWith(ctx, v.strat)
			if err != nil {
				t.Errorf("variant %d: %v", i, err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()

	// Every concurrent variant must equal its isolated cold run.
	for i, v := range variants {
		if results[i] == nil {
			continue
		}
		cold, err := New(app, arch, v.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.SynthesizeWith(ctx, v.strat)
		if err != nil {
			t.Fatalf("variant %d cold: %v", i, err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("variant %d (%v): concurrent shared-cache result differs from cold", i, v.strat)
		}
	}
}

// goldenORTraffic is the summed evaluator traffic of a serial OR pass
// over gen.Corpus(32, 1, 4), recorded on the memo whose stage keys
// encoded every task field on every holistic pass. The stage keys are
// exact, so a key encoding with the same equality classes reproduces
// every hit and every miss; one that merges or splits a class moves a
// counter here.
var goldenORTraffic = core.MemoStats{
	ConfigHits: 2084, ConfigMisses: 2417,
	ScheduleHits: 1906, ScheduleMisses: 3130,
	RTAHits: 37872, RTAMisses: 18476,
	QueueHits: 17390, QueueMisses: 3489,
}

// TestGoldenORTraffic pins the memo traffic of a serial OR pass over the
// corpus: a fresh one-worker Solver per member, its DeltaStats summed.
func TestGoldenORTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("OR over 32 systems")
	}
	var got core.MemoStats
	for _, spec := range gen.Corpus(32, 1, 4) {
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(sys.Application, sys.Architecture, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SynthesizeWith(context.Background(), OptimizeResources); err != nil {
			t.Fatal(err)
		}
		got.Add(s.DeltaStats())
	}
	if got != goldenORTraffic {
		t.Errorf("OR memo traffic\n got %+v\nwant %+v", got, goldenORTraffic)
	}
}
