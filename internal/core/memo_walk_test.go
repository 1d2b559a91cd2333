package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/opt"
)

// corpusSystem materializes corpus member i of a small test corpus.
func corpusSystem(t testing.TB, i int) (*model.Application, *model.Architecture) {
	t.Helper()
	specs := gen.Corpus(i+1, 900, 4)
	sys, err := gen.Generate(specs[i])
	if err != nil {
		t.Fatalf("corpus member %d: %v", i, err)
	}
	return sys.Application, sys.Architecture
}

// walkConfigs derives a deterministic chain of configurations from the
// normalized default by applying sampled §5.1 moves, re-analyzing after
// each step (the shape every optimizer's traffic has).
func walkConfigs(t testing.TB, app *model.Application, arch *model.Architecture, steps int, seed int64) []*core.Config {
	t.Helper()
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := []*core.Config{cfg}
	for len(out) < steps {
		moves := opt.GenerateMoves(app, arch, cfg, a, opt.MoveBudget{Max: 16, Rand: rng})
		if len(moves) == 0 {
			break
		}
		next, err := moves[rng.Intn(len(moves))].Apply(app, arch, cfg)
		if err != nil {
			continue
		}
		na, err := core.Analyze(app, arch, next)
		if err != nil {
			continue
		}
		cfg, a = next, na
		out = append(out, cfg)
	}
	return out
}

// TestAnalyzeMatchesCold: over corpus systems and optimizer-shaped move
// walks, every Memo.Analyze — cold miss, stage hit and memo hit alike —
// must deep-equal core.Analyze, which reuses nothing.
func TestAnalyzeMatchesCold(t *testing.T) {
	for i := 0; i < 3; i++ {
		app, arch := corpusSystem(t, i)
		ev := core.NewMemo(app, arch)
		for step, cfg := range walkConfigs(t, app, arch, 8, int64(100+i)) {
			want, err := core.Analyze(app, arch, cfg)
			if err != nil {
				t.Fatalf("system %d step %d: cold: %v", i, step, err)
			}
			got, err := ev.Analyze(cfg)
			if err != nil {
				t.Fatalf("system %d step %d: delta: %v", i, step, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("system %d step %d: delta analysis differs from cold", i, step)
			}
			// Replay: the memo hit must return the identical analysis.
			again, err := ev.Analyze(cfg)
			if err != nil {
				t.Fatalf("system %d step %d: replay: %v", i, step, err)
			}
			if again != got {
				t.Fatalf("system %d step %d: replay did not hit the config memo", i, step)
			}
		}
		s := ev.Stats()
		if s.ConfigHits == 0 || s.ConfigMisses == 0 {
			t.Fatalf("system %d: degenerate traffic: %+v", i, s)
		}
	}
}

// TestConfigKey checks the canonical encoding: clones collide, every
// single-field perturbation separates.
func TestConfigKey(t *testing.T) {
	app, arch := corpusSystem(t, 0)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatal(err)
	}
	base := core.ConfigKey(cfg)
	if got := core.ConfigKey(cfg.Clone()); got != base {
		t.Fatal("clone keys differ")
	}

	perturb := map[string]func(c *core.Config) *core.Config{
		"slot length": func(c *core.Config) *core.Config { c.Round.Slots[0].Length += 4; return c },
		"slot owner": func(c *core.Config) *core.Config {
			c.Round.Slots[0].Node, c.Round.Slots[1].Node = c.Round.Slots[1].Node, c.Round.Slots[0].Node
			return c
		},
		"padding": func(c *core.Config) *core.Config { c.Round.Padding += 4; return c },
		"proc priority": func(c *core.Config) *core.Config {
			for id, p := range c.ProcPriority {
				if p != core.NoPriority {
					c.ProcPriority[id] += 1000
					break
				}
			}
			return c
		},
		"msg priority": func(c *core.Config) *core.Config {
			for id, p := range c.MsgPriority {
				if p != core.NoPriority {
					c.MsgPriority[id] += 1000
					break
				}
			}
			return c
		},
		"proc pin": func(c *core.Config) *core.Config { return c.PinProc(app.Procs[0].ID, 123) },
	}
	for name, mutate := range perturb {
		if core.ConfigKey(mutate(cfg.Clone())) == base {
			t.Errorf("%s perturbation did not change the key", name)
		}
	}
}

// TestSharedMemoStageHitsMatchCold drives one core.Memo's stage tables
// along a move chain, with no full-configuration memo in front: every configuration is new, so each analysis mixes stage
// hits from its predecessors with fresh misses, and must still equal
// the cold path.
func TestSharedMemoStageHitsMatchCold(t *testing.T) {
	app, arch := corpusSystem(t, 1)
	memo := core.NewMemo(app, arch)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatal(err)
	}
	a, err := memo.AnalyzeStages(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cur, curA := cfg, a
	for step := 0; step < 6; step++ {
		moves := opt.GenerateMoves(app, arch, cur, curA, opt.MoveBudget{Max: 12, Rand: rng})
		if len(moves) == 0 {
			break
		}
		m := moves[rng.Intn(len(moves))]
		next, err := m.Apply(app, arch, cur)
		if err != nil {
			continue
		}
		got, err := memo.AnalyzeStages(next)
		if err != nil {
			continue
		}
		want, err := core.Analyze(app, arch, next)
		if err != nil {
			t.Fatalf("step %d: cold: %v", step, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: memoised analysis after %v differs from cold", step, m)
		}
		cur, curA = next, got
	}
	if s := memo.Stats(); s.Hits() == 0 || s.Misses() == 0 {
		t.Fatalf("degenerate stage traffic along the chain: %+v", s)
	}
}

// TestOSScanDeltaProperty: over an OptimizeSchedule scan, the Memo's
// caches must actually hit (hit rate > 0) while the reported result —
// the Evaluations counter included — stays exactly the one through
// core.Evaluator.
func TestOSScanDeltaProperty(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		app, arch := corpusSystem(t, i)

		cold, err := opt.OptimizeSchedule(ctx, app, arch, opt.OSOptions{Hooks: opt.Hooks{Eval: core.Evaluator(app, arch)}})
		if err != nil {
			t.Fatalf("system %d: cold OS: %v", i, err)
		}
		ev := core.NewMemo(app, arch)
		warm, err := opt.OptimizeSchedule(ctx, app, arch, opt.OSOptions{Hooks: opt.Hooks{Eval: ev.Analyze}})
		if err != nil {
			t.Fatalf("system %d: delta OS: %v", i, err)
		}

		if warm.Evaluations != cold.Evaluations {
			t.Errorf("system %d: Evaluations %d with delta, %d without", i, warm.Evaluations, cold.Evaluations)
		}
		if !reflect.DeepEqual(warm.Best, cold.Best) {
			t.Errorf("system %d: OS best differs under delta evaluation", i)
		}
		if !reflect.DeepEqual(warm.Seeds, cold.Seeds) {
			t.Errorf("system %d: OS seeds differ under delta evaluation", i)
		}

		s := ev.Stats()
		if s.ConfigHits+s.Hits() == 0 {
			t.Errorf("system %d: delta cache never hit over the OS scan: %+v", i, s)
		}
		if s.HitRate() < 0 || s.HitRate() > 1 || s.StageHitRate() < 0 || s.StageHitRate() > 1 {
			t.Errorf("system %d: hit rates out of range: %+v", i, s)
		}
	}
}

// TestEvaluatorConcurrent drives one Memo from parallel workers the way
// the optimizers' engine.Map batches do, while one more goroutine reads
// Stats as the service's /metrics scrape does; run under -race this is
// the Memo's data-race coverage. Each table's lookup count
// (hits plus misses) must never decrease between two reads.
func TestEvaluatorConcurrent(t *testing.T) {
	app, arch := corpusSystem(t, 2)
	ev := core.NewMemo(app, arch)
	cfgs := walkConfigs(t, app, arch, 6, 55)
	want := make([]*core.Analysis, len(cfgs))
	for i, cfg := range cfgs {
		a, err := core.Analyze(app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	stop, scraped := make(chan struct{}), make(chan int)
	go func() {
		lookups := func(s core.MemoStats) [4]int64 {
			return [4]int64{
				s.ConfigHits + s.ConfigMisses, s.ScheduleHits + s.ScheduleMisses,
				s.RTAHits + s.RTAMisses, s.QueueHits + s.QueueMisses,
			}
		}
		var prev [4]int64
		reads := 0
		for {
			select {
			case <-stop:
				scraped <- reads
				return
			default:
			}
			cur := lookups(ev.Stats())
			for k := range cur {
				if cur[k] < prev[k] {
					t.Errorf("table %d: lookups fell from %d to %d between scrapes", k, prev[k], cur[k])
				}
			}
			prev = cur
			reads++
		}
	}()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for rep := 0; rep < 3; rep++ {
				for i, cfg := range cfgs {
					a, err := ev.Analyze(cfg)
					if err != nil {
						done <- err
						return
					}
					if !reflect.DeepEqual(a, want[i]) {
						t.Errorf("concurrent analysis %d differs from cold", i)
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	if reads := <-scraped; reads == 0 {
		t.Error("the scrape goroutine never read the stats")
	}
	if s := ev.Stats(); s.ConfigHits == 0 {
		t.Errorf("no config hits under concurrent replay: %+v", s)
	}
}

// TestStatsAccumulate: the counters count every lookup — a miss per
// new configuration, a hit per repeat — and keep accumulating.
func TestStatsAccumulate(t *testing.T) {
	app, arch := corpusSystem(t, 0)
	ev := core.NewMemo(app, arch)
	cfgs := walkConfigs(t, app, arch, 3, 9)
	for rep := 0; rep < 2; rep++ {
		for _, cfg := range cfgs {
			if _, err := ev.Analyze(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := int64(len(cfgs))
	s := ev.Stats()
	if s.ConfigMisses != n || s.ConfigHits != n {
		t.Errorf("got %d hits / %d misses over %d configurations analysed twice: %+v", s.ConfigHits, s.ConfigMisses, n, s)
	}
	if s.Misses() == 0 {
		t.Errorf("stage counters stayed at zero: %+v", s)
	}
	if testing.Verbose() {
		t.Logf("%+v", s)
	}
}
