package tsched

import (
	"testing"

	"repro/internal/model"
	"repro/internal/ttp"
)

// TestCriticalMessageGetsEarlierSlot: when one producer emits several
// messages at once, the message feeding the longer downstream chain
// must ride the earlier slot occurrence (DESIGN.md decision 9).
func TestCriticalMessageGetsEarlierSlot(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{TTNodes: 1, ETNodes: 1})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("critfirst")
	g := app.AddGraph("G", 1000, 1000)
	n1 := arch.TTNodes()[0]
	et := arch.ETNodes()[0]
	src := app.AddProcess(g, "src", 10, n1)
	// Declared FIRST: a shallow display sink.
	shallow := app.AddProcess(g, "shallow", 5, et)
	// Declared SECOND: a deep chain.
	d1 := app.AddProcess(g, "d1", 20, et)
	d2 := app.AddProcess(g, "d2", 20, et)
	d3 := app.AddProcess(g, "d3", 20, et)
	mShallow := app.AddEdge("mShallow", src, shallow, 8)
	mDeep := app.AddEdge("mDeep", src, d1, 8)
	app.AddEdge("c1", d1, d2, 4)
	app.AddEdge("c2", d2, d3, 4)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	// An 8-byte slot: one message per round, so the order is observable.
	round := ttp.Round{Slots: []ttp.Slot{
		{Node: n1, Length: 8}, {Node: arch.Gateway, Length: 8},
	}}
	if err := round.PadToDivide(1000, model.Divisors(1000)); err != nil {
		t.Fatalf("pad: %v", err)
	}
	s, err := Build(Input{App: app, Arch: arch, Round: round})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if s.EdgeArrival[mDeep][0] >= s.EdgeArrival[mShallow][0] {
		t.Errorf("deep-chain message at %d must beat the shallow one at %d despite declaration order",
			s.EdgeArrival[mDeep][0], s.EdgeArrival[mShallow][0])
	}
}

// TestReleaseAndPinInteraction: release constraints and pins compose as
// "not before" bounds (the stricter wins).
func TestReleaseAndPinInteraction(t *testing.T) {
	app, arch, p, _ := fig4(t)
	s, err := Build(Input{
		App: app, Arch: arch, Round: roundA(arch),
		ReleaseOffset: map[model.ProcID]model.Time{p[3]: 100},
		PinnedProc:    map[model.ProcID]model.Time{p[3]: 150},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := s.ProcStart[p[3]][0]; got != 150 {
		t.Errorf("P4 start = %d, want 150 (the pin dominates the release)", got)
	}
	s, err = Build(Input{
		App: app, Arch: arch, Round: roundA(arch),
		ReleaseOffset: map[model.ProcID]model.Time{p[3]: 180},
		PinnedProc:    map[model.ProcID]model.Time{p[3]: 150},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := s.ProcStart[p[3]][0]; got != 180 {
		t.Errorf("P4 start = %d, want 180 (the release dominates the pin)", got)
	}
}

// TestEmptyTTC: applications living entirely on the ETC still build a
// (trivial) schedule.
func TestEmptyTTC(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{TTNodes: 1, ETNodes: 1})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("etonly")
	g := app.AddGraph("G", 100, 100)
	et := arch.ETNodes()[0]
	a := app.AddProcess(g, "A", 5, et)
	b := app.AddProcess(g, "B", 5, et)
	app.AddEdge("ab", a, b, 4)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	round := ttp.Round{Slots: []ttp.Slot{
		{Node: arch.TTNodes()[0], Length: 10}, {Node: arch.Gateway, Length: 10},
	}}
	if err := round.PadToDivide(100, model.Divisors(100)); err != nil {
		t.Fatalf("pad: %v", err)
	}
	s, err := Build(Input{App: app, Arch: arch, Round: round})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for p, starts := range s.ProcStart {
		if starts != nil {
			t.Errorf("ET-only application placed process %d in the TT table at %v", p, starts)
		}
	}
	if len(s.MEDL.Entries) != 0 {
		t.Errorf("ET-only application produced %d TT frames", len(s.MEDL.Entries))
	}
	if !s.WithinCycle {
		t.Error("empty schedule must be cyclic")
	}
}
