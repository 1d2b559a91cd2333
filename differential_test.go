package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"repro"
)

// The differential-replay harness: every synthesis strategy and the
// design-space exploration replayed over the seeded scenario corpus
// with the incremental delta-evaluation engine on and off, for serial
// and parallel pools, asserting byte-identical outcomes.
//
// "Byte-identical" is literal: each run is reduced to a canonical JSON
// transcript — the synthesized configuration, the full analysis, the
// evaluation counter, the Pareto front and the observer's progress
// stream — and the transcript bytes must equal the reference run's
// (delta off, one worker) exactly. This is the engine's contract: the
// caches may only change how fast an answer arrives, never the answer,
// the reported work, or the events emitted along the way.

// diffWorkers are the pool sizes replayed against each other.
var diffWorkers = []int{1, 4}

// transcript is the canonical observable outcome of one run.
type transcript struct {
	Config      *repro.Config
	Analysis    *repro.Analysis
	Evaluations int
	Front       []repro.ParetoPoint `json:",omitempty"`
	Hypervolume float64             `json:",omitempty"`
	Events      []repro.Progress
}

// canonical renders the transcript as deterministic bytes. Progress
// events are delivered serialized but chains of a parallel annealer
// interleave nondeterministically (already with delta off), so the
// stream is canonicalized into (phase, chain, step) order — within one
// chain the order is total, making the sort a stable re-keying, not a
// loss of information.
func (tr *transcript) canonical(t *testing.T) []byte {
	t.Helper()
	sort.SliceStable(tr.Events, func(i, j int) bool {
		a, b := tr.Events[i], tr.Events[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Chain != b.Chain {
			return a.Chain < b.Chain
		}
		return a.Step < b.Step
	})
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal transcript: %v", err)
	}
	return b
}

// replay runs one strategy (or the exploration, for StrategyCount) on
// a fresh solver and returns its canonical transcript bytes.
//
// Every leg runs fully instrumented: a live metrics registry and a
// trace with one span per run phase ride on the observer stream, on a
// deterministic fake clock, exactly the shape the service attaches when
// metrics and tracing are enabled. The transcripts must stay
// byte-identical with the instrumentation attached — observability may
// change how a run is watched, never what it computes.
func replay(t *testing.T, sys *repro.System, strat repro.Strategy, explore bool, seed int64, workers int, delta bool) []byte {
	t.Helper()
	tr := &transcript{}
	var mu sync.Mutex
	reg := repro.NewMetricsRegistry()
	seen := reg.Counter("diff_events_total", "observer events seen")
	steps := reg.Histogram("diff_step", "step numbers observed", nil)
	var ticks int64
	trace := repro.NewTrace(repro.ObsClockFunc(func() time.Time {
		ticks++
		return time.Unix(ticks, 0)
	}), "replay")
	phase := ""
	var span *repro.Span
	solver, err := repro.NewSolver(sys.Application, sys.Architecture,
		repro.WithSeed(seed),
		repro.WithWorkers(workers),
		repro.WithDelta(delta),
		repro.WithSAIterations(20),
		repro.WithSARestarts(2),
		repro.WithObserver(func(p repro.Progress) {
			mu.Lock()
			tr.Events = append(tr.Events, p)
			seen.Inc()
			steps.Observe(float64(p.Step))
			if p.Phase != phase {
				span.End()
				phase = p.Phase
				span = trace.Root().Start("phase:" + p.Phase)
			}
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// The instrumentation must account for every event and render.
		trace.End()
		if got := seen.Value(); got != uint64(len(tr.Events)) {
			t.Errorf("metrics saw %d events, transcript has %d", got, len(tr.Events))
		}
		if snap := trace.Snapshot(); snap.Root.EndUnixNano == 0 {
			t.Errorf("trace root not closed")
		}
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Errorf("exposition failed: %v", err)
		}
	}()
	ctx := context.Background()
	if explore {
		res, err := solver.Explore(ctx, repro.WithPopulation(6), repro.WithGenerations(2))
		if err != nil {
			t.Fatalf("explore (delta=%v workers=%d): %v", delta, workers, err)
		}
		tr.Front, tr.Hypervolume, tr.Evaluations = res.Front, res.Hypervolume, res.Evaluations
	} else {
		res, err := solver.SynthesizeWith(ctx, strat)
		if err != nil {
			t.Fatalf("%v (delta=%v workers=%d): %v", strat, delta, workers, err)
		}
		tr.Config, tr.Analysis, tr.Evaluations = res.Config, res.Analysis, res.Evaluations
	}
	return tr.canonical(t)
}

// TestDifferentialReplay is the harness. The reference leg of each
// (corpus member, strategy) cell is the cold path on a serial pool;
// every other (delta, workers) leg must reproduce its transcript to
// the byte.
func TestDifferentialReplay(t *testing.T) {
	for i, spec := range repro.Corpus(3, 800, 4) {
		sys, err := repro.Generate(spec)
		if err != nil {
			t.Fatalf("corpus member %d: %v", i, err)
		}
		type cell struct {
			name    string
			strat   repro.Strategy
			explore bool
		}
		cells := []cell{{name: "dse", explore: true}}
		for _, strat := range repro.Strategies() {
			cells = append(cells, cell{name: strat.String(), strat: strat})
		}
		for _, c := range cells {
			t.Run(fmt.Sprintf("corpus%d/%s", i, c.name), func(t *testing.T) {
				ref := replay(t, sys, c.strat, c.explore, spec.Seed, 1, false)
				for _, workers := range diffWorkers {
					for _, delta := range []bool{false, true} {
						if workers == 1 && !delta {
							continue // the reference leg itself
						}
						got := replay(t, sys, c.strat, c.explore, spec.Seed, workers, delta)
						if !bytes.Equal(got, ref) {
							t.Errorf("delta=%v workers=%d: transcript differs from reference (%d vs %d bytes)",
								delta, workers, len(got), len(ref))
						}
					}
				}
			})
		}
	}
}

// TestDifferentialSession replays every strategy twice on ONE shared
// delta-on session (the service layer's shape: one warm evaluator
// serving many jobs) and checks each run against a cold solver — the
// cache state accumulated by earlier strategies must never leak into a
// later one's results.
func TestDifferentialSession(t *testing.T) {
	spec := repro.Corpus(1, 800, 4)[0]
	sys, err := repro.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := repro.NewSolver(sys.Application, sys.Architecture,
		repro.WithSeed(spec.Seed), repro.WithWorkers(2), repro.WithSAIterations(20))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, strat := range repro.Strategies() {
			got, err := warm.SynthesizeWith(ctx, strat)
			if err != nil {
				t.Fatalf("round %d %v: %v", round, strat, err)
			}
			cold, err := repro.NewSolver(sys.Application, sys.Architecture,
				repro.WithSeed(spec.Seed), repro.WithWorkers(2), repro.WithSAIterations(20), repro.WithDelta(false))
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.SynthesizeWith(ctx, strat)
			if err != nil {
				t.Fatalf("round %d %v cold: %v", round, strat, err)
			}
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			if !bytes.Equal(g, w) {
				t.Errorf("round %d %v: warm-session result differs from cold solver", round, strat)
			}
		}
	}
	if s := warm.DeltaStats(); s.ConfigHits == 0 {
		t.Errorf("shared session never hit the delta cache: %v", s)
	}
}
