package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/opt"
)

// twinSystem builds a 2 TT + 2 ET platform where two ET nodes compete
// for the CAN bus, to exercise cross-queue arbitration.
func twinSystem(t *testing.T) (*model.Application, *model.Architecture, *core.Config, *core.Analysis) {
	t.Helper()
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 2, ETNodes: 2, TickPerByte: 1, CANBitTime: 1, GatewayCost: 2,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("twin")
	g := app.AddGraph("G", 1000, 900)
	tt1, tt2 := arch.TTNodes()[0], arch.TTNodes()[1]
	e1, e2 := arch.ETNodes()[0], arch.ETNodes()[1]
	srcA := app.AddProcess(g, "srcA", 10, tt1)
	srcB := app.AddProcess(g, "srcB", 10, tt2)
	workA := app.AddProcess(g, "workA", 30, e1)
	workB := app.AddProcess(g, "workB", 30, e2)
	sinkA := app.AddProcess(g, "sinkA", 10, tt1)
	sinkB := app.AddProcess(g, "sinkB", 10, tt2)
	app.AddEdge("inA", srcA, workA, 8)
	app.AddEdge("inB", srcB, workB, 8)
	app.AddEdge("outA", workA, sinkA, 8)
	app.AddEdge("outB", workB, sinkB, 8)
	for i := range app.Edges {
		app.Edges[i].CANTime = 6
	}
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	osres, err := opt.OptimizeSchedule(context.Background(), app, arch, opt.OSOptions{Hooks: opt.Hooks{Eval: core.Evaluator(app, arch)}})
	if err != nil {
		t.Fatalf("OptimizeSchedule: %v", err)
	}
	if !osres.Best.Schedulable() {
		t.Fatalf("twin system unschedulable: delta=%d", osres.Best.Delta())
	}
	return app, arch, osres.Best.Config, osres.Best.Analysis
}

func TestTwinClusterArbitration(t *testing.T) {
	app, arch, cfg, a := twinSystem(t)
	res, err := Run(app, arch, cfg, a, Options{Cycles: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.DeadlineMisses != 0 {
		t.Errorf("misses: %d", res.DeadlineMisses)
	}
	checkDominance(t, app, a, res)
	// Both ET->TT paths crossed the gateway: the OutTTP queue was used.
	if a.Buffers.OutTTP == 0 {
		t.Error("expected ET->TT traffic through OutTTP")
	}
}

// TestTraceOutput checks the event-trace feature end to end.
func TestTraceOutput(t *testing.T) {
	app, arch, cfg, a := twinSystem(t)
	var buf bytes.Buffer
	if _, err := Run(app, arch, cfg, a, Options{Cycles: 1, Trace: &buf}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"TT start", "finish", "CAN start", "deliver", "S_G drain"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace misses %q", want)
		}
	}
	// Tracing must not change the results.
	quiet, err := Run(app, arch, cfg, a, Options{Cycles: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	traced, err := Run(app, arch, cfg, a, Options{Cycles: 1, Trace: &bytes.Buffer{}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if quiet.GraphWorstResp[0] != traced.GraphWorstResp[0] || quiet.Completed != traced.Completed {
		t.Error("tracing changed the simulation outcome")
	}
}

// TestCANArbitrationOrder: with both node queues loaded at the same
// instant, the bus must serve the globally highest priority message
// first, regardless of which node queues it.
func TestCANArbitrationOrder(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 1, ETNodes: 2, TickPerByte: 1, CANBitTime: 1, GatewayCost: 2,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("arb")
	g := app.AddGraph("G", 1000, 1000)
	e1, e2 := arch.ETNodes()[0], arch.ETNodes()[1]
	// c floods the bus first with a long low-priority frame; while it is
	// transmitting, ma and mb are queued on different nodes. At the next
	// arbitration point the globally highest priority message (mb, from
	// the other node's queue) must win.
	a := app.AddProcess(g, "a", 10, e1)
	b := app.AddProcess(g, "b", 12, e2)
	c := app.AddProcess(g, "c", 5, e2)
	ra := app.AddProcess(g, "ra", 5, e2)
	rb := app.AddProcess(g, "rb", 5, e1)
	rc := app.AddProcess(g, "rc", 5, e1)
	ma := app.AddEdge("ma", a, ra, 8)
	mb := app.AddEdge("mb", b, rb, 8)
	mc := app.AddEdge("mc", c, rc, 8)
	app.Edges[ma].CANTime = 20
	app.Edges[mb].CANTime = 20
	app.Edges[mc].CANTime = 30
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	cfg := core.DefaultConfig(app, arch)
	// c runs first on e2 (highest CPU priority); mb outranks ma on the
	// bus although it sits in the other queue; mc is the lowest.
	cfg.ProcPriority[c] = 0
	cfg.MsgPriority[ma] = 2
	cfg.MsgPriority[mb] = 1
	cfg.MsgPriority[mc] = 3
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	an, err := core.Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := Run(app, arch, cfg, an, Options{Cycles: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Trace: c finishes at 5, mc transmits [5,35]. a finishes at 10
	// (queues ma), b finishes at 5+12=17 (queues mb). At 35 the bus
	// re-arbitrates: mb wins, [35,55]; ma follows, [55,75].
	if got := res.EdgeWorstDelivery[mc]; got != 35 {
		t.Errorf("mc delivered at %d, want 35", got)
	}
	if got := res.EdgeWorstDelivery[mb]; got != 55 {
		t.Errorf("mb delivered at %d, want 55 (wins cross-queue arbitration)", got)
	}
	if got := res.EdgeWorstDelivery[ma]; got != 75 {
		t.Errorf("ma delivered at %d, want 75", got)
	}
	checkDominance(t, app, an, res)
}
