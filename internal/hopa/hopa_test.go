package hopa

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/ttp"
)

// fig4 rebuilds the paper's Figure 4 system (see internal/core tests).
func fig4(t *testing.T) (*model.Application, *model.Architecture, ttp.Round) {
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
	// The favourable slot order of panel (d): S_1 before S_G.
	round := ttp.Round{Slots: []ttp.Slot{
		{Node: n1, Length: 20}, {Node: arch.Gateway, Length: 20},
	}}
	return app, arch, round
}

// TestAssignFindsSchedulableFig4 checks that HOPA discovers the
// schedulable priority order on the panel-(d) bus configuration: P2 must
// end up with higher priority than P3 (the paper's Fig. 4c insight).
func TestAssignFindsSchedulableFig4(t *testing.T) {
	app, arch, round := fig4(t)
	res, err := Assign(app, arch, round, 0, core.Evaluator(app, arch))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if !res.Schedulable {
		t.Fatalf("HOPA did not find a schedulable assignment: delta=%d", res.Delta)
	}
	p2, p3 := model.ProcID(1), model.ProcID(2)
	if res.ProcPriority[p2] >= res.ProcPriority[p3] {
		t.Errorf("priority(P2)=%d must beat priority(P3)=%d", res.ProcPriority[p2], res.ProcPriority[p3])
	}
	// m3 closes the critical chain P1->P2->m3->P4: it must outrank m2,
	// which only feeds the short P3 branch.
	if res.MsgPriority[2] >= res.MsgPriority[1] {
		t.Errorf("priority(m3)=%d should beat priority(m2)=%d", res.MsgPriority[2], res.MsgPriority[1])
	}
	if res.Evaluations < 1 {
		t.Error("no analyses performed")
	}
}

// TestAssignProducesValidConfig: the returned priorities always form a
// valid configuration (unique per resource, complete).
func TestAssignProducesValidConfig(t *testing.T) {
	app, arch, round := fig4(t)
	res, err := Assign(app, arch, round, 2, core.Evaluator(app, arch))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	cfg := &core.Config{Round: round, ProcPriority: res.ProcPriority, MsgPriority: res.MsgPriority}
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if err := cfg.Validate(app, arch); err != nil {
		t.Fatalf("HOPA produced an invalid configuration: %v", err)
	}
}

// TestAssignBeatsCreationOrder compares HOPA's delta with the naive
// creation-order priorities of DefaultConfig on Figure 4: HOPA must not
// be worse.
func TestAssignBeatsCreationOrder(t *testing.T) {
	app, arch, round := fig4(t)
	res, err := Assign(app, arch, round, 0, core.Evaluator(app, arch))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	naive := core.DefaultConfig(app, arch)
	naive.Round = round.Clone()
	if err := naive.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	na, err := core.Analyze(app, arch, naive)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Delta > na.Delta {
		t.Errorf("HOPA delta %d worse than creation order %d", res.Delta, na.Delta)
	}
}

// TestInitialLocalDeadlines: the backward pass orders the deadline of a
// chain head strictly before the chain tail.
func TestInitialLocalDeadlines(t *testing.T) {
	app, arch, round := fig4(t)
	ld, err := initialLocalDeadlines(app, arch, round)
	if err != nil {
		t.Fatalf("initialLocalDeadlines: %v", err)
	}
	p1, p2, p4 := ld.proc[0], ld.proc[1], ld.proc[3]
	if !(p1 < p2 && p2 < p4) {
		t.Errorf("chain deadlines not ordered: P1=%d P2=%d P4=%d", p1, p2, p4)
	}
	if p4 != 200 {
		t.Errorf("sink local deadline = %d, want the graph deadline 200", p4)
	}
	for p, v := range ld.proc {
		if v < 1 {
			t.Errorf("process %d has non-positive local deadline %d", p, v)
		}
	}
	for e, v := range ld.edge {
		if v < 1 {
			t.Errorf("edge %d has non-positive local deadline %d", e, v)
		}
	}
}
