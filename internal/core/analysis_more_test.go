package core

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// TestGatewayPollAddsJitter: a positive MBI polling period of the
// transfer process T must widen the jitter of TT->ET messages and can
// only increase downstream responses.
func TestGatewayPollAddsJitter(t *testing.T) {
	app, arch, p, m := fig4System(t)
	cfg := fig4Config(app, arch, false, true, p, m)
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	base, err := Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	arch.GatewayPoll = 10
	polled, err := Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze(poll): %v", err)
	}
	arch.GatewayPoll = 0
	if got, want := polled.Edge[m[0]].CANJ, base.Edge[m[0]].CANJ+10; got != want {
		t.Errorf("poll jitter: CANJ = %d, want %d", got, want)
	}
	for g := range app.Graphs {
		if polled.GraphResp[g] < base.GraphResp[g] {
			t.Errorf("polling made graph %d faster: %d < %d", g, polled.GraphResp[g], base.GraphResp[g])
		}
	}
}

// TestLocalProcessDeadlines: a violated local deadline makes the system
// unschedulable even when the end-to-end deadline holds.
func TestLocalProcessDeadlines(t *testing.T) {
	app, arch, p, m := fig4System(t)
	cfg := fig4Config(app, arch, false, true, p, m) // panel (d): R_G1 = 190
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	// P2 completes at 60 + r2 = 105 on panel (d); a local deadline of 90
	// must flip the verdict.
	app.Procs[p[1]].Deadline = 90
	a, err := Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	app.Procs[p[1]].Deadline = 0
	if a.Schedulable {
		t.Errorf("local deadline violation not detected (completion %d)", a.Proc[p[1]].Completion())
	}
	if a.Delta <= 0 {
		t.Errorf("delta must be positive with a local violation, got %d", a.Delta)
	}
}

// TestMultiETNodeAnalysis runs the analysis on a 2 TT + 2 ET platform
// and checks per-node interference isolation: processes only suffer W
// from their own node.
func TestMultiETNodeAnalysis(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 2, ETNodes: 2, TickPerByte: 1, CANBitTime: 1, GatewayCost: 2,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("twin")
	g := app.AddGraph("G", 1000, 900)
	tt := arch.TTNodes()[0]
	e1, e2 := arch.ETNodes()[0], arch.ETNodes()[1]
	src := app.AddProcess(g, "src", 10, tt)
	// Two independent consumers on different ET nodes.
	a1 := app.AddProcess(g, "a1", 50, e1)
	a2 := app.AddProcess(g, "a2", 50, e1)
	b1 := app.AddProcess(g, "b1", 50, e2)
	app.AddEdge("ma1", src, a1, 8)
	app.AddEdge("ma2", src, a2, 8)
	app.AddEdge("mb1", src, b1, 8)
	for i := range app.Edges {
		app.Edges[i].CANTime = 5
	}
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	cfg := DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	an, err := Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// a2 (lower priority than a1 on the same node) suffers interference;
	// b1 alone on its node does not.
	if an.Proc[a2].W == 0 {
		t.Error("a2 must be preempted by a1")
	}
	if an.Proc[b1].W != 0 {
		t.Errorf("b1 is alone on its node, W = %d", an.Proc[b1].W)
	}
	if !an.Schedulable {
		t.Errorf("twin system must be schedulable, delta=%d", an.Delta)
	}
}

// TestAnalysisDeterminism: two analyses of the same configuration are
// identical (maps everywhere, so this guards iteration-order bugs).
func TestAnalysisDeterminism(t *testing.T) {
	sys, err := gen.Generate(gen.Spec{Seed: 12, TTNodes: 1, ETNodes: 1, ProcsPerNode: 10, ProcsPerGraph: 10})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	cfg := DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	a1, err := Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	a2, err := Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a1.Delta != a2.Delta || a1.Buffers.Total != a2.Buffers.Total || a1.Iterations != a2.Iterations {
		t.Error("analysis is not deterministic")
	}
	for p := range a1.Proc {
		if a1.Proc[p] != a2.Proc[p] {
			t.Errorf("process %d results differ", p)
		}
	}
	for e := range a1.Edge {
		if a1.Edge[e] != a2.Edge[e] {
			t.Errorf("edge %d results differ", e)
		}
	}
}

// TestUnschedulableStillRanked: grossly overloaded systems get finite,
// comparable deltas (the optimization heuristics need a gradient).
func TestUnschedulableStillRanked(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 1, ETNodes: 1, TickPerByte: 1, CANBitTime: 1, GatewayCost: 1,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("overload")
	g := app.AddGraph("G", 100, 50)
	et := arch.ETNodes()[0]
	// Three 40-tick processes on one CPU with a 100-tick period: the CPU
	// is at 120% utilization.
	var last model.ProcID
	for i := 0; i < 3; i++ {
		last = app.AddProcess(g, "", 40, et)
	}
	_ = last
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	cfg := DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	a, err := Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Schedulable {
		t.Fatal("120% utilization accepted")
	}
	if a.Delta <= 0 {
		t.Errorf("delta = %d, want positive overload measure", a.Delta)
	}
	if a.Converged {
		t.Log("note: overload converged (finite first-instance responses)")
	}
}

// TestPropertyAnalysisMonotoneInWCET: growing any WCET never shrinks
// the degree of schedulability (the cost landscape the optimizers walk
// is monotone in load).
func TestPropertyAnalysisMonotoneInWCET(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sys, err := gen.Generate(gen.Spec{Seed: seed, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6, ProcsPerGraph: 6})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		app, arch := sys.Application, sys.Architecture
		cfg := DefaultConfig(app, arch)
		if err := cfg.Normalize(app); err != nil {
			t.Fatalf("Normalize: %v", err)
		}
		base, err := Analyze(app, arch, cfg)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		// Grow one ET process on the critical graph by 50%.
		var grown model.ProcID = -1
		for _, p := range app.Procs {
			if arch.Kind(p.Node) == model.EventTriggered {
				grown = p.ID
				break
			}
		}
		if grown < 0 {
			continue
		}
		old := app.Procs[grown].WCET
		app.Procs[grown].WCET = old + old/2 + 1
		more, err := Analyze(app, arch, cfg)
		app.Procs[grown].WCET = old
		if err != nil {
			t.Fatalf("Analyze(grown): %v", err)
		}
		if more.Delta < base.Delta {
			t.Errorf("seed %d: delta improved from %d to %d after growing %s",
				seed, base.Delta, more.Delta, app.Procs[grown].Name)
		}
	}
}

// TestAnalyzeSeesInPlaceEditsAfterFinalize guards the Finalize caches:
// a WCET and a graph period changed in place after Finalize (and after
// an analysis has used the caches) must give the same configuration and
// analysis as a freshly generated copy with the same edits, finalized
// afterwards.
func TestAnalyzeSeesInPlaceEditsAfterFinalize(t *testing.T) {
	spec := gen.Spec{Seed: 3, TTNodes: 2, ETNodes: 2, ProcsPerNode: 6, InterClusterMsgs: 4}
	edit := func(app *model.Application) {
		app.Procs[0].WCET += 3
		app.Graphs[0].Period *= 3
	}
	// The configuration's round does not divide the hyper-period, so
	// Normalize has to search the divisors for its padding.
	run := func(app *model.Application, arch *model.Architecture) (*Config, *Analysis) {
		cfg := unpaddedConfig(t, app, DefaultConfig(app, arch))
		if err := cfg.Normalize(app); err != nil {
			t.Fatalf("Normalize: %v", err)
		}
		a, err := Analyze(app, arch, cfg)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		return cfg, a
	}

	sys, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	run(app, arch)
	before, _ := app.Hyperperiod()
	edit(app)
	if after, _ := app.Hyperperiod(); after == before {
		t.Fatalf("the period edit left the hyper-period at %d", before)
	}
	cfg, got := run(app, arch)

	fresh, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	edit(fresh.Application)
	if err := fresh.Application.Finalize(fresh.Architecture); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	wantCfg, want := run(fresh.Application, fresh.Architecture)
	if !reflect.DeepEqual(cfg, wantCfg) {
		t.Errorf("in-place edits: config %v, fresh copy %v", cfg.Round, wantCfg.Round)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("in-place edits: analysis differs from the fresh copy (delta %d vs %d)", got.Delta, want.Delta)
	}
}
