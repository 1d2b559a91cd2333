package sa

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/opt"
)

func fig4(t *testing.T) (*model.Application, *model.Architecture) {
	t.Helper()
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 1, ETNodes: 1, TickPerByte: 1, CANBitTime: 1, GatewayCost: 5,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("fig4")
	g := app.AddGraph("G1", 240, 200)
	n1 := arch.TTNodes()[0]
	n2 := arch.ETNodes()[0]
	p1 := app.AddProcess(g, "P1", 30, n1)
	p2 := app.AddProcess(g, "P2", 20, n2)
	p3 := app.AddProcess(g, "P3", 20, n2)
	p4 := app.AddProcess(g, "P4", 30, n1)
	m1 := app.AddEdge("m1", p1, p2, 8)
	m2 := app.AddEdge("m2", p1, p3, 8)
	m3 := app.AddEdge("m3", p2, p4, 4)
	for _, e := range []model.EdgeID{m1, m2, m3} {
		app.Edges[e].CANTime = 10
	}
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return app, arch
}

// straightforward analyzes the SF baseline, the SAS/SAR start point.
func straightforward(t *testing.T, app *model.Application, arch *model.Architecture) *opt.Result {
	t.Helper()
	sf, err := opt.StraightforwardWith(app, arch, core.Evaluator(app, arch))
	if err != nil {
		t.Fatalf("Straightforward: %v", err)
	}
	return sf
}

func TestSASImprovesDelta(t *testing.T) {
	app, arch := fig4(t)
	sf := straightforward(t, app, arch)
	res, err := Run(context.Background(), app, arch, sf.Config, Options{Objective: MinimizeDelta, Iterations: 120, Seed: 3, Eval: core.Evaluator(app, arch)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Best.Delta() > sf.Delta() {
		t.Errorf("SAS best delta %d worse than its SF start %d", res.Best.Delta(), sf.Delta())
	}
	if !res.Best.Schedulable() {
		t.Errorf("SAS failed to schedule Figure 4 (delta=%d)", res.Best.Delta())
	}
	if res.Evaluations <= 1 {
		t.Error("SAS did not evaluate moves")
	}
}

func TestSARMinimizesBuffersKeepingSchedulability(t *testing.T) {
	sys, err := gen.Generate(gen.Spec{Seed: 17, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	sf := straightforward(t, app, arch)
	res, err := Run(context.Background(), app, arch, sf.Config, Options{Objective: MinimizeBuffers, Iterations: 80, Seed: 4, Eval: core.Evaluator(app, arch)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Best == nil {
		t.Fatal("no best result")
	}
	// If SAR found any schedulable configuration its best must be
	// schedulable (the penalty dominates all buffer costs).
	if res.Best.Schedulable() {
		if res.Best.STotal() <= 0 && len(app.GatewayEdges(arch)) > 0 {
			t.Error("schedulable system with gateway traffic but zero buffers")
		}
	}
}

func TestDeterminismWithSeed(t *testing.T) {
	app, arch := fig4(t)
	sf := straightforward(t, app, arch)
	opts := Options{Objective: MinimizeDelta, Iterations: 60, Seed: 9, Eval: core.Evaluator(app, arch)}
	a, err := Run(context.Background(), app, arch, sf.Config, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(context.Background(), app, arch, sf.Config, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Best.Delta() != b.Best.Delta() || a.Accepted != b.Accepted || a.Evaluations != b.Evaluations {
		t.Errorf("same seed diverged: delta %d/%d accepted %d/%d evals %d/%d",
			a.Best.Delta(), b.Best.Delta(), a.Accepted, b.Accepted, a.Evaluations, b.Evaluations)
	}
}

func TestObjectiveCosts(t *testing.T) {
	app, arch := fig4(t)
	sf := straightforward(t, app, arch)
	cDelta := cost(MinimizeDelta, sf)
	if cDelta != float64(sf.Delta()) {
		t.Errorf("SAS cost = %v, want %v", cDelta, sf.Delta())
	}
	cBuf := cost(MinimizeBuffers, sf)
	if sf.Schedulable() {
		if cBuf != float64(sf.STotal()) {
			t.Errorf("SAR cost = %v, want %v", cBuf, sf.STotal())
		}
	} else if cBuf < unschedulablePenalty {
		t.Errorf("SAR cost %v misses the schedulability penalty", cBuf)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.Iterations != 300 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestBestNeverWorseThanStart(t *testing.T) {
	app, arch := fig4(t)
	sf := straightforward(t, app, arch)
	for _, obj := range []Objective{MinimizeDelta, MinimizeBuffers} {
		res, err := Run(context.Background(), app, arch, sf.Config, Options{Objective: obj, Iterations: 50, Seed: 7, Eval: core.Evaluator(app, arch)})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if cost(obj, res.Best) > cost(obj, sf) {
			t.Errorf("objective %d: best cost %v worse than the start %v", obj, cost(obj, res.Best), cost(obj, sf))
		}
	}
}
