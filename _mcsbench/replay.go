package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/sa"
	"repro/internal/tsched"
)

// replayStats aggregates the side replay.
type replayStats struct {
	jobs                map[string]int           // replayed jobs that ran each optimizer layer
	self                map[string]time.Duration // run time minus time inside Eval, per layer
	hits, misses        int
	hitTime, missTime   time.Duration
	keys                int
	keyTime             time.Duration
	colds, iterations   int
	coldTime, buildTime time.Duration
}

// sideReplay re-runs a sample of the workload's timed jobs in-process,
// single-worker, through opt.OptimizeResources, sa.RunRestarts and
// dse.Explore as the Solver calls them, with a timed Eval around a
// delta.Evaluator injected. It then re-runs the configurations that
// missed the evaluator through core.AnalyzeWith without a memo and
// tsched.Build on their first-pass input, and times delta.ConfigKey on
// the configurations the jobs evaluated.
func sideReplay(w *workload, in *inputs, sz size) (*replayStats, error) {
	rs := &replayStats{jobs: map[string]int{}, self: map[string]time.Duration{}}
	seen := map[string]bool{}
	for i := 0; len(seen) < sz.replayJobs && i < 64*sz.replayJobs; i++ {
		r, err := in.timed(i)
		if err != nil {
			return nil, err
		}
		if r.resubmit || seen[r.key] {
			continue // a resubmission is served from the store without optimizer work
		}
		seen[r.key] = true
		if err := rs.replay(r, w.warmReplay, sz.coldConfigs); err != nil {
			return nil, fmt.Errorf("replaying a %s job: %w", r.strategy, err)
		}
	}
	return rs, nil
}

// replay runs one request, first untimed when the workload's steady
// state has the evaluator warm.
func (rs *replayStats) replay(r *request, warm bool, coldCap int) error {
	sys, err := decodeSystem(r)
	if err != nil {
		return err
	}
	app, arch := sys.Application, sys.Architecture
	te := &timedEval{ev: delta.New(app, arch), missedCap: coldCap}
	if warm {
		if _, err := runJob(app, arch, r, te); err != nil {
			return err
		}
	}
	te.record = true
	self, err := runJob(app, arch, r, te)
	if err != nil {
		return err
	}
	for layer, d := range self {
		rs.jobs[layer]++
		rs.self[layer] += d
	}
	rs.hits += te.hits
	rs.misses += te.misses
	rs.hitTime += te.hitTime
	rs.missTime += te.missTime

	for _, cfg := range te.missed {
		t0 := time.Now()
		a, err := core.AnalyzeWith(app, arch, cfg, core.AnalyzeOptions{})
		rs.coldTime += time.Since(t0)
		if err != nil {
			return err
		}
		rs.colds++
		rs.iterations += a.Iterations
		t0 = time.Now()
		_, err = tsched.Build(tsched.Input{
			App: app, Arch: arch, Round: cfg.Round,
			ReleaseOffset: map[model.ProcID]model.Time{},
			PinnedProc:    cfg.PinnedProc,
			PinnedEdge:    cfg.PinnedEdge,
		})
		rs.buildTime += time.Since(t0)
		if err != nil {
			return err
		}
	}
	t0 := time.Now()
	for _, cfg := range te.seen {
		keySink += len(delta.ConfigKey(cfg))
	}
	rs.keyTime += time.Since(t0)
	rs.keys += len(te.seen)
	return nil
}

// keySink keeps the timed delta.ConfigKey results observable.
var keySink int

// runJob runs the optimizer calls of one request as the Solver does,
// through te, and returns each optimizer layer's self time: its run time
// minus the time spent inside te.
func runJob(app *model.Application, arch *model.Architecture, r *request, te *timedEval) (map[string]time.Duration, error) {
	ctx := context.Background()
	self := map[string]time.Duration{}
	timed := func(layer string, fn func() error) error {
		e0, t0 := te.inEval, time.Now()
		err := fn()
		self[layer] += time.Since(t0) - (te.inEval - e0)
		return err
	}
	hooks := opt.Hooks{Eval: te.eval}
	or := opt.OROptions{RandSeed: r.seed, Workers: 1, Hooks: hooks, OS: opt.OSOptions{Workers: 1, Hooks: hooks}}
	var err error
	switch r.strategy {
	case "sf":
		err = timed("opt", func() error {
			_, err := opt.StraightforwardWith(app, arch, te.eval)
			return err
		})
	case "os":
		err = timed("opt", func() error {
			_, err := opt.OptimizeSchedule(ctx, app, arch, or.OS)
			return err
		})
	case "or":
		err = timed("opt", func() error {
			_, err := opt.OptimizeResources(ctx, app, arch, or)
			return err
		})
	case "sas", "sar":
		obj := sa.MinimizeDelta
		if r.strategy == "sar" {
			obj = sa.MinimizeBuffers
		}
		err = timed("sa", func() error {
			initial := core.DefaultConfig(app, arch)
			if err := initial.Normalize(app); err != nil {
				return err
			}
			_, err := sa.RunRestarts(ctx, app, arch, initial, sa.Options{
				Objective: obj, Iterations: r.saIterations, Seed: r.seed, Restarts: 1, Workers: 1, Eval: te.eval,
			})
			return err
		})
	case "explore":
		// The warm start is the OR optimization, so its time is opt's.
		var points []dse.Point
		err = timed("opt", func() error {
			res, err := opt.OptimizeResources(ctx, app, arch, or)
			if err != nil {
				return err
			}
			add := func(x *opt.Result) {
				if x != nil {
					points = append(points, dse.Point{Config: x.Config, Analysis: x.Analysis})
				}
			}
			add(res.Best)
			if res.OS != nil {
				add(res.OS.Best)
				for _, s := range res.OS.Seeds {
					add(s)
				}
			}
			return nil
		})
		if err == nil {
			err = timed("dse", func() error {
				_, err := dse.Explore(ctx, app, arch, dse.Options{
					Population: r.population, Generations: r.generations, Seed: r.seed,
					Workers: 1, SeedPoints: points, Eval: te.eval,
				})
				return err
			})
		}
	default:
		err = fmt.Errorf("unknown strategy %q", r.strategy)
	}
	return self, err
}

// timedEval is the Eval the side replay injects: a delta.Evaluator with
// every call timed and classed as a hit or a miss. The replay runs
// single-worker, so calls are serial and the evaluator's hit counter
// tells them apart.
type timedEval struct {
	ev        *delta.Evaluator
	record    bool // count hits and misses: the timed run
	missedCap int
	// inEval is the time spent inside eval, its bookkeeping included,
	// so the optimizers' self time excludes the wrapper.
	inEval            time.Duration
	hits, misses      int
	hitTime, missTime time.Duration
	missed            []*core.Config // configurations that missed, both runs
	seen              []*core.Config // configurations evaluated, for ConfigKey timing
}

// seenCap bounds the configurations kept per job for ConfigKey timing.
const seenCap = 512

func (t *timedEval) eval(cfg *core.Config) (*core.Analysis, error) {
	t0 := time.Now()
	before := t.ev.Stats().ConfigHits
	t1 := time.Now()
	a, err := t.ev.Analyze(cfg)
	d := time.Since(t1)
	hit := t.ev.Stats().ConfigHits > before
	if t.record {
		if hit {
			t.hits++
			t.hitTime += d
		} else {
			t.misses++
			t.missTime += d
		}
	}
	if !hit && err == nil && len(t.missed) < t.missedCap {
		t.missed = append(t.missed, cfg.Clone())
	}
	if len(t.seen) < seenCap {
		t.seen = append(t.seen, cfg.Clone())
	}
	t.inEval += time.Since(t0)
	return a, err
}
