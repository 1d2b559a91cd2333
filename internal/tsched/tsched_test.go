package tsched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/ttp"
)

// fig4 builds the paper's Figure 4 system: N1 (TT), N2 (ET), gateway NG.
// G1: P1 -> {m1 -> P2, m2 -> P3}, P2 -> m3 -> P4. P1, P4 on N1; P2, P3
// on N2. Period 240, deadline 200.
func fig4(t *testing.T) (*model.Application, *model.Architecture, [4]model.ProcID, [3]model.EdgeID) {
	t.Helper()
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		Name: "fig4", TTNodes: 1, ETNodes: 1, TickPerByte: 1, CANBitTime: 1, GatewayCost: 5,
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
	return app, arch, [4]model.ProcID{p1, p2, p3, p4}, [3]model.EdgeID{m1, m2, m3}
}

// roundA is Figure 4(a): S_G first, then S_1, 20 ticks each.
func roundA(arch *model.Architecture) ttp.Round {
	return ttp.Round{Slots: []ttp.Slot{
		{Node: arch.Gateway, Length: 20},
		{Node: arch.TTNodes()[0], Length: 20},
	}}
}

// roundB is Figure 4(b): S_1 first.
func roundB(arch *model.Architecture) ttp.Round {
	return ttp.Round{Slots: []ttp.Slot{
		{Node: arch.TTNodes()[0], Length: 20},
		{Node: arch.Gateway, Length: 20},
	}}
}

func TestFig4aStaticSchedule(t *testing.T) {
	app, arch, p, m := fig4(t)
	s, err := Build(Input{App: app, Arch: arch, Round: roundA(arch)})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := s.ProcStart[p[0]]; len(got) != 1 || got[0] != 0 {
		t.Errorf("P1 starts = %v, want [0]", got)
	}
	// P1 finishes at 30; the next S_1 slot is [60, 80) in round 2, so m1
	// and m2 both arrive at the gateway MBI at 80 (the paper's trace).
	for _, e := range []model.EdgeID{m[0], m[1]} {
		if got := s.EdgeArrival[e]; len(got) != 1 || got[0] != 80 {
			t.Errorf("%s arrival = %v, want [80]", app.Edges[e].Name, got)
		}
	}
	// P4 has no TT predecessor constraint here (its input comes from the
	// ETC): it backfills right after P1 on N1.
	if got := s.ProcStart[p[3]]; len(got) != 1 || got[0] != 30 {
		t.Errorf("P4 starts = %v, want [30] without release constraints", got)
	}
	if !s.WithinCycle {
		t.Error("schedule must fit the cycle")
	}
	if err := s.MEDL.Validate(arch.TTP.TickPerByte); err != nil {
		t.Errorf("MEDL invalid: %v", err)
	}
}

func TestFig4bSlotOrderChangesArrival(t *testing.T) {
	app, arch, _, m := fig4(t)
	s, err := Build(Input{App: app, Arch: arch, Round: roundB(arch)})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// With S_1 first, the slot [40, 60) of round 2 carries m1 and m2:
	// 20 ticks earlier than configuration (a).
	for _, e := range []model.EdgeID{m[0], m[1]} {
		if got := s.EdgeArrival[e]; len(got) != 1 || got[0] != 60 {
			t.Errorf("%s arrival = %v, want [60]", app.Edges[e].Name, got)
		}
	}
}

func TestReleaseOffsetDelaysConsumer(t *testing.T) {
	app, arch, p, _ := fig4(t)
	s, err := Build(Input{
		App: app, Arch: arch, Round: roundA(arch),
		ReleaseOffset: map[model.ProcID]model.Time{p[3]: 180},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := s.ProcStart[p[3]]; len(got) != 1 || got[0] != 180 {
		t.Errorf("P4 starts = %v, want [180] (m3's worst arrival)", got)
	}
	if !s.WithinCycle {
		t.Error("fits: 180+30 <= 240")
	}
	// Push the release beyond the period window: still scheduled, but
	// flagged.
	s, err = Build(Input{
		App: app, Arch: arch, Round: roundA(arch),
		ReleaseOffset: map[model.ProcID]model.Time{p[3]: 220},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if s.WithinCycle {
		t.Error("220+30 > 240 must clear WithinCycle")
	}
}

func TestSlotCapacityOverflowSpillsToNextRound(t *testing.T) {
	app, arch, p, _ := fig4(t)
	// Third 8-byte message from P1: 24 bytes > 20-byte slot capacity.
	p5 := app.AddProcess(0, "P5", 20, arch.ETNodes()[0])
	m4 := app.AddEdge("m4", p[0], p5, 8)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	s, err := Build(Input{App: app, Arch: arch, Round: roundA(arch)})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	arrivals := []model.Time{s.EdgeArrival[0][0], s.EdgeArrival[1][0], s.EdgeArrival[m4][0]}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	if arrivals[0] != 80 || arrivals[1] != 80 || arrivals[2] != 120 {
		t.Errorf("arrivals = %v, want [80 80 120]", arrivals)
	}
	if err := s.MEDL.Validate(arch.TTP.TickPerByte); err != nil {
		t.Errorf("MEDL invalid: %v", err)
	}
}

func TestMessageLargerThanSlotFails(t *testing.T) {
	app, arch, p, _ := fig4(t)
	p5 := app.AddProcess(0, "P5", 20, arch.ETNodes()[0])
	app.AddEdge("big", p[0], p5, 25)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if _, err := Build(Input{App: app, Arch: arch, Round: roundA(arch)}); err == nil {
		t.Fatal("accepted message larger than its slot")
	}
}

func TestTTtoTTPrecedence(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{TTNodes: 2, ETNodes: 1})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("ttchain")
	g := app.AddGraph("G", 200, 200)
	n1, n2 := arch.TTNodes()[0], arch.TTNodes()[1]
	a := app.AddProcess(g, "A", 10, n1)
	b := app.AddProcess(g, "B", 10, n2)
	c := app.AddProcess(g, "C", 5, n1) // local successor of A
	app.AddEdge("ab", a, b, 4)
	app.AddEdge("ac", a, c, 0)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	round := ttp.Round{Slots: []ttp.Slot{
		{Node: n1, Length: 10}, {Node: n2, Length: 10}, {Node: arch.Gateway, Length: 5},
	}}
	if err := round.PadToDivide(200, model.Divisors(200)); err != nil {
		t.Fatalf("pad: %v", err)
	}
	s, err := Build(Input{App: app, Arch: arch, Round: round})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	finishA := s.ProcStart[a][0] + 10
	if arr := s.EdgeArrival[0][0]; arr < finishA {
		t.Errorf("message departs (%d) before A finishes (%d)", arr, finishA)
	}
	if s.ProcStart[b][0] < s.EdgeArrival[0][0] {
		t.Errorf("B starts (%d) before ab arrives (%d)", s.ProcStart[b][0], s.EdgeArrival[0][0])
	}
	if s.ProcStart[c][0] < finishA {
		t.Errorf("local successor C starts (%d) before A finishes (%d)", s.ProcStart[c][0], finishA)
	}
}

func TestPins(t *testing.T) {
	app, arch, p, m := fig4(t)
	s, err := Build(Input{
		App: app, Arch: arch, Round: roundA(arch),
		PinnedProc: map[model.ProcID]model.Time{p[0]: 15},
		PinnedEdge: map[model.EdgeID]model.Time{m[1]: 90},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Pinning P1 to 15 lets P4 (est 0) backfill first on N1; P1 then
	// runs at 30 and finishes at 60, catching S_1 of round 2.
	if got := s.ProcStart[p[3]][0]; got != 0 {
		t.Errorf("P4 start = %d, want 0 (backfills before the pinned P1)", got)
	}
	if got := s.ProcStart[p[0]][0]; got != 30 {
		t.Errorf("pinned P1 start = %d, want 30", got)
	}
	if got := s.EdgeArrival[m[0]][0]; got != 80 {
		t.Errorf("m1 arrival = %d, want 80", got)
	}
	// m2 pinned to >= 90: next S_1 occurrence after 90 starts at 100,
	// arrival 120 (pin applies only to m2).
	if got := s.EdgeArrival[m[1]][0]; got != 120 {
		t.Errorf("pinned m2 arrival = %d, want 120", got)
	}
}

func TestMultiRateRollout(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{TTNodes: 1, ETNodes: 1})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("rates")
	fast := app.AddGraph("fast", 120, 120)
	slow := app.AddGraph("slow", 240, 240)
	n1 := arch.TTNodes()[0]
	f := app.AddProcess(fast, "F", 10, n1)
	sl := app.AddProcess(slow, "S", 10, n1)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	round := ttp.Round{Slots: []ttp.Slot{{Node: n1, Length: 10}, {Node: arch.Gateway, Length: 10}}}
	if err := round.PadToDivide(240, model.Divisors(240)); err != nil {
		t.Fatalf("pad: %v", err)
	}
	s, err := Build(Input{App: app, Arch: arch, Round: round})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(s.ProcStart[f]) != 2 {
		t.Fatalf("fast process has %d instances, want 2", len(s.ProcStart[f]))
	}
	if len(s.ProcStart[sl]) != 1 {
		t.Fatalf("slow process has %d instances, want 1", len(s.ProcStart[sl]))
	}
	if s.ProcStart[f][1] < 120 {
		t.Errorf("second instance starts at %d, before its release 120", s.ProcStart[f][1])
	}
	off, spread, ok := s.OffsetOf(app, f)
	if !ok || off < 0 || spread < 0 {
		t.Errorf("OffsetOf = %d,%d,%v", off, spread, ok)
	}
	// No overlap on the CPU.
	checkNoCPUOverlap(t, app, s)
}

func TestEnvelopeAndWorstOffsets(t *testing.T) {
	app, arch, p, m := fig4(t)
	s, err := Build(Input{App: app, Arch: arch, Round: roundA(arch)})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	off, spread, ok := s.OffsetOf(app, p[0])
	if !ok || off != 0 || spread != 0 {
		t.Errorf("OffsetOf(P1) = %d,%d,%v want 0,0,true", off, spread, ok)
	}
	if _, _, ok := s.OffsetOf(app, p[1]); ok {
		t.Error("ET process must not be in the TT schedule")
	}
	wa, ok := s.WorstArrivalOffset(app, m[0])
	if !ok || wa != 80 {
		t.Errorf("WorstArrivalOffset(m1) = %d, want 80", wa)
	}
	if _, ok := s.WorstArrivalOffset(app, m[2]); ok {
		t.Error("m3 is an ET->TT edge, not in the static schedule")
	}
}

func TestRejectsUnalignedRound(t *testing.T) {
	app, arch, _, _ := fig4(t)
	round := ttp.Round{Slots: []ttp.Slot{
		{Node: arch.Gateway, Length: 23},
		{Node: arch.TTNodes()[0], Length: 20},
	}} // period 43 does not divide 240
	if _, err := Build(Input{App: app, Arch: arch, Round: round}); err == nil {
		t.Fatal("accepted round period that does not divide the hyper-period")
	}
}

func TestMinAndRecommendedSlotLengths(t *testing.T) {
	app, arch, _, _ := fig4(t)
	n1 := arch.TTNodes()[0]
	if got := MinSlotLength(app, arch, n1); got != 8 {
		t.Errorf("MinSlotLength(N1) = %d, want 8 (largest outgoing message)", got)
	}
	// Gateway slot must fit the largest ET->TT message (m3: 4 bytes).
	if got := MinSlotLength(app, arch, arch.Gateway); got != 4 {
		t.Errorf("MinSlotLength(NG) = %d, want 4", got)
	}
	// ET node owns no slot but the helper still answers (1 byte).
	if got := MinSlotLength(app, arch, arch.ETNodes()[0]); got != 1 {
		t.Errorf("MinSlotLength(N2) = %d, want 1", got)
	}
	rec := RecommendedSlotLengths(app, arch, n1, 4)
	if len(rec) != 2 || rec[0] != 8 || rec[1] != 16 {
		t.Errorf("RecommendedSlotLengths(N1) = %v, want [8 16]", rec)
	}
	rec = RecommendedSlotLengths(app, arch, n1, 1)
	if len(rec) != 1 || rec[0] != 8 {
		t.Errorf("capped RecommendedSlotLengths = %v, want [8]", rec)
	}
	rec = RecommendedSlotLengths(app, arch, arch.ETNodes()[0], 4)
	if len(rec) != 1 || rec[0] != 1 {
		t.Errorf("RecommendedSlotLengths(no traffic) = %v, want [1]", rec)
	}
}

func checkNoCPUOverlap(t *testing.T, app *model.Application, s *Schedule) {
	t.Helper()
	type iv struct{ a, b model.Time }
	byNode := make(map[model.NodeID][]iv)
	for p, starts := range s.ProcStart {
		for _, st := range starts {
			n := app.Procs[p].Node
			byNode[n] = append(byNode[n], iv{st, st + app.Procs[p].WCET})
		}
	}
	for n, ivs := range byNode {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].a < ivs[i-1].b {
				t.Errorf("node %d: overlapping executions [%d,%d) and [%d,%d)", n, ivs[i-1].a, ivs[i-1].b, ivs[i].a, ivs[i].b)
			}
		}
	}
}

// Property test: random TT-heavy DAGs keep precedence, CPU exclusivity
// and MEDL validity whenever the schedule fits the cycle.
func TestPropertyScheduleInvariants(t *testing.T) {
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{TTNodes: 3, ETNodes: 1})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		app := model.NewApplication("prop")
		g := app.AddGraph("G", 2000, 2000)
		tts := arch.TTNodes()
		n := 4 + r.Intn(10)
		ids := make([]model.ProcID, n)
		for i := range ids {
			ids[i] = app.AddProcess(g, "", 1+model.Time(r.Intn(20)), tts[r.Intn(len(tts))])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					app.AddEdge("", ids[i], ids[j], 1+r.Intn(12))
				}
			}
		}
		if err := app.Finalize(arch); err != nil {
			return false
		}
		round := ttp.NewRound(arch.SlotOwners(), func(model.NodeID) model.Time {
			return 12 + model.Time(r.Intn(8))
		})
		if err := round.PadToDivide(2000, model.Divisors(2000)); err != nil {
			return true // skip: geometry impossible
		}
		s, err := Build(Input{App: app, Arch: arch, Round: round})
		if err != nil {
			return true // structural (message > slot): not an invariant breach
		}
		// Precedence.
		for _, e := range app.Edges {
			switch app.RouteOf(e.ID, arch) {
			case model.RouteLocal:
				for k := range s.ProcStart[e.Dst] {
					if s.ProcStart[e.Dst][k] < s.ProcStart[e.Src][k]+app.Procs[e.Src].WCET {
						return false
					}
				}
			case model.RouteTTP:
				for k := range s.ProcStart[e.Dst] {
					if s.EdgeArrival[e.ID][k] < s.ProcStart[e.Src][k]+app.Procs[e.Src].WCET {
						return false
					}
					if s.ProcStart[e.Dst][k] < s.EdgeArrival[e.ID][k] {
						return false
					}
				}
			}
		}
		// CPU exclusivity.
		type iv struct{ a, b model.Time }
		byNode := make(map[model.NodeID][]iv)
		for p, starts := range s.ProcStart {
			for _, st := range starts {
				byNode[app.Procs[p].Node] = append(byNode[app.Procs[p].Node], iv{st, st + app.Procs[p].WCET})
			}
		}
		for _, ivs := range byNode {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
			for i := 1; i < len(ivs); i++ {
				if ivs[i].a < ivs[i-1].b {
					return false
				}
			}
		}
		// MEDL validity for cyclic tables.
		if s.WithinCycle {
			if err := s.MEDL.Validate(arch.TTP.TickPerByte); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
