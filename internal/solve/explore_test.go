package solve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/gen"
	"repro/internal/model"
)

// paperSystem builds one of the §6 evaluation systems (gen.Paper, the
// Fig. 9 workload).
func paperSystem(t testing.TB, nodes int, seed int64) (*model.Application, *model.Architecture) {
	t.Helper()
	sys, err := gen.Paper(nodes, seed)
	if err != nil {
		t.Fatalf("gen.Paper: %v", err)
	}
	return sys.Application, sys.Architecture
}

// TestExploreDominatesSingleObjectiveOnPaperCorpus is the acceptance
// criterion: on the paper corpus the DSE front must contain points that
// weakly dominate both the OS-only and the OR-only single-objective
// results. The warm start makes this structural — the OS/OR optima are
// archived — and this test pins it against regressions in the archive
// or the warm-start plumbing.
func TestExploreDominatesSingleObjectiveOnPaperCorpus(t *testing.T) {
	for _, seed := range []int64{2, 3} { // even/odd: exponential and uniform WCETs
		app, arch := paperSystem(t, 2, seed)
		s, err := New(app, arch, WithWorkers(4), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		osres, err := s.SynthesizeWith(ctx, OptimizeSchedule)
		if err != nil {
			t.Fatalf("seed %d: OS: %v", seed, err)
		}
		orres, err := s.SynthesizeWith(ctx, OptimizeResources)
		if err != nil {
			t.Fatalf("seed %d: OR: %v", seed, err)
		}
		front, err := s.Explore(ctx, WithPopulation(8), WithGenerations(3))
		if err != nil {
			t.Fatalf("seed %d: Explore: %v", seed, err)
		}
		osObj := dse.Point{Config: osres.Config, Analysis: osres.Analysis}.Objectives()
		orObj := dse.Point{Config: orres.Config, Analysis: orres.Analysis}.Objectives()
		for name, single := range map[string]dse.Objectives{"OS": osObj, "OR": orObj} {
			dominated := false
			for _, p := range front.Front {
				if p.Objectives().WeaklyDominates(single) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Errorf("seed %d: no front point weakly dominates the %s result %v", seed, name, single)
				for _, p := range front.Front {
					t.Logf("  front: %v", p.Objectives())
				}
			}
		}
		// The front itself must stay mutually non-dominated.
		for i, p := range front.Front {
			for j, q := range front.Front {
				if i != j && p.Objectives().WeaklyDominates(q.Objectives()) {
					t.Errorf("seed %d: front[%d] dominates front[%d]", seed, i, j)
				}
			}
		}
	}
}

// TestExploreBitIdenticalAcrossWorkers is the determinism half of the
// acceptance criterion: for a fixed seed the front must be
// bit-identical (configuration bytes included) between a serial and a
// parallel session on the paper corpus.
func TestExploreBitIdenticalAcrossWorkers(t *testing.T) {
	app, arch := paperSystem(t, 2, 3)
	run := func(workers int) *dse.Result {
		s, err := New(app, arch, WithWorkers(workers), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Explore(context.Background(), WithPopulation(8), WithGenerations(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	if serial.Evaluations != parallel.Evaluations || serial.Hypervolume != parallel.Hypervolume {
		t.Errorf("serial (%d evals, hv %v) != parallel (%d evals, hv %v)",
			serial.Evaluations, serial.Hypervolume, parallel.Evaluations, parallel.Hypervolume)
	}
	if len(serial.Front) != len(parallel.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(serial.Front), len(parallel.Front))
	}
	for i := range serial.Front {
		var a, b bytes.Buffer
		if err := serial.Front[i].Config.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Front[i].Config.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("front[%d] configurations differ between worker counts", i)
		}
	}
}

// TestExploreObserverStream: an exploration streams its warm-start
// phases and one "dse" event per generation, all labeled with the
// Explore strategy, with monotone evaluation counts and the final
// front statistics.
func TestExploreObserverStream(t *testing.T) {
	app, arch := system(t, 3)
	var mu sync.Mutex
	var events []Progress
	s, err := New(app, arch, WithObserver(func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Explore(context.Background(), WithPopulation(6), WithGenerations(2))
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	lastEvals := 0
	var lastDSE Progress
	for _, ev := range events {
		if ev.Strategy != Explore {
			t.Errorf("event strategy %v, want Explore", ev.Strategy)
		}
		phases[ev.Phase]++
		if ev.Phase == "dse" {
			lastDSE = ev
			if ev.Evaluations < lastEvals {
				t.Errorf("dse evaluations went backwards: %d after %d", ev.Evaluations, lastEvals)
			}
			lastEvals = ev.Evaluations
		}
	}
	if phases["os"] == 0 {
		t.Error("no warm-start os events")
	}
	if got := phases["dse"]; got != 3 { // generation 0 (initial) + 2
		t.Errorf("dse events = %d, want 3", got)
	}
	if lastDSE.FrontSize != len(res.Front) {
		t.Errorf("last dse event front size %d, want %d", lastDSE.FrontSize, len(res.Front))
	}
	if lastDSE.Hypervolume != res.Hypervolume {
		t.Errorf("last dse event hypervolume %v, want %v", lastDSE.Hypervolume, res.Hypervolume)
	}
	if lastDSE.Evaluations != res.Evaluations {
		t.Errorf("last dse event evaluations %d, want %d", lastDSE.Evaluations, res.Evaluations)
	}
}

// TestExploreCancelDuringWarmStart: cancelling while the OS/OR warm
// start runs still returns the partial single-objective results as a
// best-so-far front.
func TestExploreCancelDuringWarmStart(t *testing.T) {
	app, arch := system(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(app, arch, WithObserver(func(p Progress) {
		if p.Phase == "os" {
			cancel() // first warm-start event: cancel mid-OS
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Explore(ctx, WithPopulation(6), WithGenerations(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Front) == 0 {
		t.Fatal("cancelled warm start returned no best-so-far front")
	}
	if res.Evaluations == 0 {
		t.Error("partial result reports zero evaluations")
	}
}

// TestExploreWithoutWarmStart: WithWarmStart(false) skips the OS/OR
// pass — the exploration stands alone and its evaluation count stays
// at the NSGA-II budget.
func TestExploreWithoutWarmStart(t *testing.T) {
	app, arch := system(t, 3)
	s, err := New(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Explore(context.Background(), WithPopulation(6), WithGenerations(2))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Explore(context.Background(), WithPopulation(6), WithGenerations(2), WithWarmStart(false))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Evaluations >= warm.Evaluations {
		t.Errorf("cold exploration (%d evals) should spend fewer analyses than warm (%d)",
			cold.Evaluations, warm.Evaluations)
	}
}

// TestExploreTinyArchiveCapKeepsDominationGuarantee: even when the
// archive cap forces pruning every generation, the warm-start points
// are pinned, so the front still weakly dominates the OS and OR
// results.
func TestExploreTinyArchiveCapKeepsDominationGuarantee(t *testing.T) {
	app, arch := system(t, 3)
	s, err := New(app, arch, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	osres, err := s.SynthesizeWith(ctx, OptimizeSchedule)
	if err != nil {
		t.Fatal(err)
	}
	orres, err := s.SynthesizeWith(ctx, OptimizeResources)
	if err != nil {
		t.Fatal(err)
	}
	front, err := s.Explore(ctx, WithPopulation(8), WithGenerations(4), WithArchiveCap(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"OS": osres, "OR": orres} {
		single := dse.Point{Config: r.Config, Analysis: r.Analysis}.Objectives()
		dominated := false
		for _, p := range front.Front {
			if p.Objectives().WeaklyDominates(single) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("cap-2 front lost weak domination of the %s result %v", name, single)
			for _, p := range front.Front {
				t.Logf("  front: %v", p.Objectives())
			}
		}
	}
}

// TestExploreSeedDefaultsToSession: an explicit WithExploreSeed equal
// to the session seed is the same exploration as the default.
func TestExploreSeedDefaultsToSession(t *testing.T) {
	app, arch := system(t, 3)
	s, err := New(app, arch, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Explore(context.Background(), WithPopulation(6), WithGenerations(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Explore(context.Background(), WithPopulation(6), WithGenerations(2), WithExploreSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluations != b.Evaluations || a.Hypervolume != b.Hypervolume || len(a.Front) != len(b.Front) {
		t.Errorf("default-seed exploration differs from explicit session seed: (%d, %v, %d) vs (%d, %v, %d)",
			a.Evaluations, a.Hypervolume, len(a.Front), b.Evaluations, b.Hypervolume, len(b.Front))
	}
}
