package cruise

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/sim"
)

func TestSystemShape(t *testing.T) {
	sys, err := System()
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	if got := len(app.Procs); got != 40 {
		t.Errorf("processes = %d, want 40 (the paper's model size)", got)
	}
	if got := len(arch.TTNodes()); got != 2 {
		t.Errorf("TT nodes = %d, want 2", got)
	}
	if got := len(arch.ETNodes()); got != 2 {
		t.Errorf("ET nodes = %d, want 2", got)
	}
	if app.Graphs[0].Deadline != 250 {
		t.Errorf("deadline = %d, want 250 ms", app.Graphs[0].Deadline)
	}
	if err := app.Validate(arch); err != nil {
		t.Fatalf("model invalid: %v", err)
	}
	// The speedup part is on the ETC, the control law on the TTC.
	byName := make(map[string]model.ProcID)
	for _, p := range app.Procs {
		byName[p.Name] = p.ID
	}
	for _, name := range []string{"sp_entry", "sp_arbiter", "sp_decision"} {
		if arch.Kind(app.Procs[byName[name]].Node) != model.EventTriggered {
			t.Errorf("%s must run on the ETC", name)
		}
	}
	for _, name := range []string{"pi_control", "limiter", "act_throttle"} {
		if arch.Kind(app.Procs[byName[name]].Node) != model.TimeTriggered {
			t.Errorf("%s must run on the TTC", name)
		}
	}
	// Inter-cluster traffic crosses the gateway in both directions.
	var toET, toTT int
	for _, e := range app.GatewayEdges(arch) {
		switch app.RouteOf(e, arch) {
		case model.RouteTTtoET:
			toET++
		case model.RouteETtoTT:
			toTT++
		}
	}
	if toET == 0 || toTT == 0 {
		t.Errorf("gateway traffic = %d TT->ET, %d ET->TT; want both directions", toET, toTT)
	}
}

// TestPublishedBehaviourShape is experiment E6: SF misses the 250 ms
// deadline, OptimizeSchedule produces a schedulable system, and
// OptimizeResources reduces the buffer need without losing
// schedulability (paper: SF 320 ms, OS/SAS 185 ms, OS buffers 1020 B,
// OR -24%; our calibrated model: SF 276 ms, OS ~230 ms, OR cuts the
// OS buffer need by >= 10%; see EXPERIMENTS.md).
func TestPublishedBehaviourShape(t *testing.T) {
	sys, err := System()
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	app, arch := sys.Application, sys.Architecture

	sf, err := opt.StraightforwardWith(app, arch, core.Evaluator(app, arch))
	if err != nil {
		t.Fatalf("Straightforward: %v", err)
	}
	if sf.Schedulable() {
		t.Errorf("SF must miss the deadline (resp=%d)", sf.Analysis.GraphResp[0])
	}
	if sf.Analysis.GraphResp[0] <= 250 {
		t.Errorf("SF response = %d, want > 250", sf.Analysis.GraphResp[0])
	}

	osres, err := opt.OptimizeSchedule(context.Background(), app, arch, opt.OSOptions{Hooks: opt.Hooks{Eval: core.Evaluator(app, arch)}})
	if err != nil {
		t.Fatalf("OptimizeSchedule: %v", err)
	}
	if !osres.Best.Schedulable() {
		t.Fatalf("OS must find a schedulable system (delta=%d)", osres.Best.Delta())
	}
	if osres.Best.Analysis.GraphResp[0] > 250 {
		t.Errorf("OS response = %d, want <= 250", osres.Best.Analysis.GraphResp[0])
	}
	if osres.Best.Analysis.GraphResp[0] >= sf.Analysis.GraphResp[0] {
		t.Errorf("OS (%d) must beat SF (%d)", osres.Best.Analysis.GraphResp[0], sf.Analysis.GraphResp[0])
	}

	orres, err := opt.OptimizeResources(context.Background(), app, arch, opt.OROptions{Hooks: opt.Hooks{Eval: core.Evaluator(app, arch)}})
	if err != nil {
		t.Fatalf("OptimizeResources: %v", err)
	}
	if !orres.Best.Schedulable() {
		t.Error("OR lost schedulability")
	}
	if orres.Best.STotal() >= osres.Best.STotal() {
		t.Errorf("OR s_total = %d, want < OS %d", orres.Best.STotal(), osres.Best.STotal())
	}
}

// TestCruiseSimulation validates the synthesized cruise controller in
// the discrete-event simulator: no deadline misses, no violations, all
// observations within the analysed bounds.
func TestCruiseSimulation(t *testing.T) {
	sys, err := System()
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	osres, err := opt.OptimizeSchedule(context.Background(), app, arch, opt.OSOptions{Hooks: opt.Hooks{Eval: core.Evaluator(app, arch)}})
	if err != nil {
		t.Fatalf("OptimizeSchedule: %v", err)
	}
	if !osres.Best.Schedulable() {
		t.Fatal("OS result unschedulable")
	}
	for _, mode := range []sim.ExecMode{sim.WorstCase, sim.RandomCase} {
		res, err := sim.Run(app, arch, osres.Best.Config, osres.Best.Analysis, sim.Options{Cycles: 2, Exec: mode, Seed: 7})
		if err != nil {
			t.Fatalf("sim.Run(%v): %v", mode, err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations: %v", res.Violations)
		}
		if res.DeadlineMisses != 0 {
			t.Errorf("deadline misses: %d", res.DeadlineMisses)
		}
		if res.GraphWorstResp[0] > osres.Best.Analysis.GraphResp[0] {
			t.Errorf("simulated response %d exceeds analysed %d", res.GraphWorstResp[0], osres.Best.Analysis.GraphResp[0])
		}
	}
}
