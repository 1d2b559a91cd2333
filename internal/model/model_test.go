package model

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func testArch(t *testing.T) *Architecture {
	t.Helper()
	arch, err := NewTwoClusterArchitecture(ArchSpec{TTNodes: 2, ETNodes: 2})
	if err != nil {
		t.Fatalf("NewTwoClusterArchitecture: %v", err)
	}
	return arch
}

// fig1G1 builds graph G1 of the paper's Figure 1 (P1..P4 with m1..m3)
// mapped as in Figure 3: P1, P4 on TT node N1; P2, P3 on ET node N3.
func fig1G1(t *testing.T, arch *Architecture) (*Application, [4]ProcID, [3]EdgeID) {
	t.Helper()
	app := NewApplication("fig1")
	g := app.AddGraph("G1", 240, 200)
	tt := arch.TTNodes()[0]
	et := arch.ETNodes()[0]
	p1 := app.AddProcess(g, "P1", 30, tt)
	p2 := app.AddProcess(g, "P2", 20, et)
	p3 := app.AddProcess(g, "P3", 20, et)
	p4 := app.AddProcess(g, "P4", 30, tt)
	m1 := app.AddEdge("m1", p1, p2, 8)
	m2 := app.AddEdge("m2", p1, p3, 8)
	m3 := app.AddEdge("m3", p2, p4, 4)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return app, [4]ProcID{p1, p2, p3, p4}, [3]EdgeID{m1, m2, m3}
}

func TestBuilderAndAdjacency(t *testing.T) {
	arch := testArch(t)
	app, p, m := fig1G1(t, arch)
	if got := app.Succs(p[0]); len(got) != 2 || got[0] != p[1] || got[1] != p[2] {
		t.Errorf("Succs(P1) = %v, want [P2 P3]", got)
	}
	if got := app.Preds(p[3]); len(got) != 1 || got[0] != p[1] {
		t.Errorf("Preds(P4) = %v, want [P2]", got)
	}
	if got := app.InEdges(p[1]); len(got) != 1 || got[0] != m[0] {
		t.Errorf("InEdges(P2) = %v, want [m1]", got)
	}
	if app.PeriodOf(p[2]) != 240 {
		t.Errorf("PeriodOf(P3) = %d, want 240", app.PeriodOf(p[2]))
	}
	if app.EdgePeriod(m[2]) != 240 {
		t.Errorf("EdgePeriod(m3) = %d, want 240", app.EdgePeriod(m[2]))
	}
}

func TestTopoOrder(t *testing.T) {
	arch := testArch(t)
	app, p, _ := fig1G1(t, arch)
	order, err := app.TopoOrder(0)
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[ProcID]int)
	for i, q := range order {
		pos[q] = i
	}
	for _, e := range app.Edges {
		if pos[e.Src] >= pos[e.Dst] {
			t.Errorf("edge %s violates topological order", e.Name)
		}
	}
	if order[0] != p[0] {
		t.Errorf("first process = %d, want P1", order[0])
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	arch := testArch(t)
	app := NewApplication("cyclic")
	g := app.AddGraph("G", 100, 100)
	et := arch.ETNodes()[0]
	a := app.AddProcess(g, "A", 1, et)
	b := app.AddProcess(g, "B", 1, et)
	app.AddEdge("ab", a, b, 0)
	app.AddEdge("ba", b, a, 0)
	if _, err := app.TopoOrder(0); err == nil {
		t.Fatal("TopoOrder accepted a cyclic graph")
	}
	if err := app.Validate(arch); err == nil {
		t.Fatal("Validate accepted a cyclic graph")
	}
}

func TestLongestPathAndCriticalPath(t *testing.T) {
	arch := testArch(t)
	app, p, _ := fig1G1(t, arch)
	lp, err := app.LongestPathToSink()
	if err != nil {
		t.Fatalf("LongestPathToSink: %v", err)
	}
	// P1(30) -> P2(20) -> P4(30) is the longest chain: 80.
	want := map[ProcID]Time{p[0]: 80, p[1]: 50, p[2]: 20, p[3]: 30}
	for q, w := range want {
		if lp[q] != w {
			t.Errorf("LongestPathToSink[%s] = %d, want %d", app.Procs[q].Name, lp[q], w)
		}
	}
	// The critical path of the graph is its longest path to a sink.
	var cp Time
	for _, q := range app.Graphs[0].Procs {
		cp = max(cp, lp[q])
	}
	if cp != 80 {
		t.Errorf("critical path = %d, want 80", cp)
	}
}

func TestSources(t *testing.T) {
	arch := testArch(t)
	app, p, _ := fig1G1(t, arch)
	if s := app.Sources(0); len(s) != 1 || s[0] != p[0] {
		t.Errorf("Sources = %v, want [P1]", s)
	}
}

func TestHyperperiod(t *testing.T) {
	arch := testArch(t)
	app := NewApplication("hp")
	g1 := app.AddGraph("G1", 40, 40)
	g2 := app.AddGraph("G2", 60, 50)
	et := arch.ETNodes()[0]
	app.AddProcess(g1, "A", 1, et)
	app.AddProcess(g2, "B", 1, et)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	h, err := app.Hyperperiod()
	if err != nil {
		t.Fatalf("Hyperperiod: %v", err)
	}
	if h != 120 {
		t.Errorf("Hyperperiod = %d, want 120", h)
	}
}

func TestLCMOverflow(t *testing.T) {
	if _, err := LCM(1<<61, (1<<61)-1); err == nil {
		t.Fatal("LCM accepted an overflowing pair")
	}
	if _, err := LCM(0, 5); err == nil {
		t.Fatal("LCM accepted zero")
	}
}

func TestRouteOf(t *testing.T) {
	arch := testArch(t)
	app, p, m := fig1G1(t, arch)
	// Add a TT->TT edge and an ET->ET edge for full coverage.
	tt2 := arch.TTNodes()[1]
	et2 := arch.ETNodes()[1]
	p5 := app.AddProcess(0, "P5", 10, tt2)
	p6 := app.AddProcess(0, "P6", 10, et2)
	e1 := app.AddEdge("tt", p[0], p5, 8)
	e2 := app.AddEdge("et", p[1], p6, 8)
	e3 := app.AddEdge("loc", p[0], p[3], 0)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	cases := []struct {
		e    EdgeID
		want Route
	}{
		{m[0], RouteTTtoET},
		{m[2], RouteETtoTT},
		{e1, RouteTTP},
		{e2, RouteCAN},
		{e3, RouteLocal},
	}
	for _, c := range cases {
		if got := app.RouteOf(c.e, arch); got != c.want {
			t.Errorf("RouteOf(%s) = %v, want %v", app.Edges[c.e].Name, got, c.want)
		}
	}
	gw := app.GatewayEdges(arch)
	if len(gw) != 3 { // m1, m2, m3
		t.Errorf("GatewayEdges = %v, want 3 edges", gw)
	}
}

func TestRouteFlags(t *testing.T) {
	if !RouteTTtoET.UsesCAN() || !RouteTTtoET.UsesTTP() || !RouteTTtoET.UsesGateway() {
		t.Error("RouteTTtoET must use CAN, TTP and the gateway")
	}
	if RouteETtoTT.UsesTTP() {
		t.Error("RouteETtoTT's S_G leg is dynamic, UsesTTP must be false")
	}
	if RouteLocal.UsesCAN() || RouteLocal.UsesTTP() || RouteLocal.UsesGateway() {
		t.Error("RouteLocal must not use any bus")
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	arch := testArch(t)
	et := arch.ETNodes()[0]

	cases := []struct {
		name  string
		build func() *Application
	}{
		{"no graphs", func() *Application { return NewApplication("x") }},
		{"zero wcet", func() *Application {
			a := NewApplication("x")
			g := a.AddGraph("G", 10, 10)
			a.AddProcess(g, "P", 0, et)
			return a
		}},
		{"gateway mapping", func() *Application {
			a := NewApplication("x")
			g := a.AddGraph("G", 10, 10)
			a.AddProcess(g, "P", 1, arch.Gateway)
			return a
		}},
		{"deadline beyond period", func() *Application {
			a := NewApplication("x")
			g := a.AddGraph("G", 10, 20)
			a.AddProcess(g, "P", 1, et)
			return a
		}},
		{"cross-node zero size", func() *Application {
			a := NewApplication("x")
			g := a.AddGraph("G", 10, 10)
			p := a.AddProcess(g, "P", 1, et)
			q := a.AddProcess(g, "Q", 1, arch.TTNodes()[0])
			a.AddEdge("m", p, q, 0)
			return a
		}},
		{"bcet above wcet", func() *Application {
			a := NewApplication("x")
			g := a.AddGraph("G", 10, 10)
			p := a.AddProcess(g, "P", 5, et)
			a.Procs[p].BCET = 9
			return a
		}},
	}
	for _, c := range cases {
		if err := c.build().Finalize(arch); err == nil {
			t.Errorf("%s: Validate accepted invalid application", c.name)
		}
	}
}

func TestValidateCrossGraphEdge(t *testing.T) {
	arch := testArch(t)
	app := NewApplication("x")
	g1 := app.AddGraph("G1", 10, 10)
	g2 := app.AddGraph("G2", 10, 10)
	et := arch.ETNodes()[0]
	a := app.AddProcess(g1, "A", 1, et)
	b := app.AddProcess(g2, "B", 1, et)
	app.AddEdge("m", a, b, 4)
	if err := app.Finalize(arch); err == nil {
		t.Fatal("Validate accepted an edge crossing graphs")
	}
}

func TestValidateArchitecture(t *testing.T) {
	if _, err := NewTwoClusterArchitecture(ArchSpec{TTNodes: 0, ETNodes: 1}); err == nil {
		t.Error("accepted architecture without TT nodes")
	}
	arch := testArch(t)
	arch.TTP.TickPerByte = 0
	if err := ValidateArchitecture(arch); err == nil {
		t.Error("accepted zero TickPerByte")
	}
	arch = testArch(t)
	arch.Nodes[0].Kind = GatewayNode
	if err := ValidateArchitecture(arch); err == nil {
		t.Error("accepted two gateway nodes")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	arch := testArch(t)
	app, _, _ := fig1G1(t, arch)
	sys := &System{Architecture: arch, Application: app}
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(got.Application.Procs) != len(app.Procs) || len(got.Application.Edges) != len(app.Edges) {
		t.Fatalf("round trip lost elements: %d procs %d edges", len(got.Application.Procs), len(got.Application.Edges))
	}
	if got.Application.Procs[1].Name != "P2" || got.Architecture.Nodes[0].Kind != TimeTriggered {
		t.Error("round trip corrupted fields")
	}
	// Adjacency must be rebuilt after decode.
	if len(got.Application.Succs(0)) != 2 {
		t.Error("adjacency not rebuilt after ReadJSON")
	}
}

func TestSaveLoadFile(t *testing.T) {
	arch := testArch(t)
	app, _, _ := fig1G1(t, arch)
	sys := &System{Architecture: arch, Application: app}
	path := t.TempDir() + "/sys.json"
	if err := sys.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Application.Name != "fig1" {
		t.Errorf("loaded name %q", got.Application.Name)
	}
}

func TestUtilizationByNode(t *testing.T) {
	arch := testArch(t)
	app, _, _ := fig1G1(t, arch)
	u := app.UtilizationByNode(arch)
	tt := arch.TTNodes()[0]
	et := arch.ETNodes()[0]
	if got, want := u[tt], 60.0/240.0; got != want {
		t.Errorf("U(N1) = %g, want %g", got, want)
	}
	if got, want := u[et], 40.0/240.0; got != want {
		t.Errorf("U(N3) = %g, want %g", got, want)
	}
}

// randomDAG builds a random layered DAG application for property tests.
func randomDAG(r *rand.Rand, arch *Architecture) *Application {
	app := NewApplication("prop")
	g := app.AddGraph("G", 1000, 1000)
	n := 2 + r.Intn(20)
	nodes := append(arch.TTNodes(), arch.ETNodes()...)
	ids := make([]ProcID, n)
	for i := 0; i < n; i++ {
		ids[i] = app.AddProcess(g, "", 1+Time(r.Intn(9)), nodes[r.Intn(len(nodes))])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(4) == 0 {
				app.AddEdge("", ids[i], ids[j], 1+r.Intn(31))
			}
		}
	}
	return app
}

func TestPropertyTopoOrderValid(t *testing.T) {
	arch := testArch(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		app := randomDAG(r, arch)
		if err := app.Finalize(arch); err != nil {
			return false
		}
		order, err := app.TopoOrder(0)
		if err != nil {
			return false
		}
		if len(order) != len(app.Procs) {
			return false
		}
		pos := make(map[ProcID]int)
		for i, p := range order {
			pos[p] = i
		}
		for _, e := range app.Edges {
			if pos[e.Src] >= pos[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(12)
	want := []Time{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("Divisors(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Divisors(12) = %v, want %v", got, want)
		}
	}
	if d := Divisors(7); len(d) != 2 || d[0] != 1 || d[1] != 7 {
		t.Errorf("Divisors(7) = %v", d)
	}
}

func TestPropertyLongestPathDominatesSuccessors(t *testing.T) {
	arch := testArch(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		app := randomDAG(r, arch)
		if err := app.Finalize(arch); err != nil {
			return false
		}
		lp, err := app.LongestPathToSink()
		if err != nil {
			return false
		}
		for _, p := range app.Procs {
			if lp[p.ID] < p.WCET {
				return false
			}
			for _, s := range app.Succs(p.ID) {
				if lp[p.ID] < lp[s]+p.WCET {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{12, 8, 4}, {7, 13, 1}, {40, 240, 40}, {5, 5, 5},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestClusterKindString(t *testing.T) {
	if TimeTriggered.String() != "TT" || EventTriggered.String() != "ET" || GatewayNode.String() != "GW" {
		t.Error("ClusterKind.String mismatch")
	}
	if ClusterKind(9).String() == "" {
		t.Error("unknown kind must still stringify")
	}
}

func TestTopoOrderAll(t *testing.T) {
	arch := testArch(t)
	app := NewApplication("two")
	g1 := app.AddGraph("G1", 100, 100)
	g2 := app.AddGraph("G2", 100, 100)
	et := arch.ETNodes()[0]
	a := app.AddProcess(g1, "A", 1, et)
	b := app.AddProcess(g1, "B", 1, et)
	c := app.AddProcess(g2, "C", 1, et)
	app.AddEdge("ab", a, b, 0)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	order, err := app.TopoOrderAll()
	if err != nil {
		t.Fatalf("TopoOrderAll: %v", err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	pos := map[ProcID]int{}
	for i, p := range order {
		pos[p] = i
	}
	if pos[a] >= pos[b] {
		t.Error("edge ab violated")
	}
	_ = c
	// Cycle in one graph fails the whole ordering.
	app.AddEdge("ba", b, a, 0)
	if _, err := app.TopoOrderAll(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestSlotOwners(t *testing.T) {
	arch := testArch(t)
	owners := arch.SlotOwners()
	if len(owners) != 3 { // 2 TT + gateway
		t.Fatalf("owners = %v", owners)
	}
	if owners[len(owners)-1] != arch.Gateway {
		t.Errorf("gateway must own a slot: %v", owners)
	}
	for _, n := range owners {
		if arch.Kind(n) == EventTriggered {
			t.Errorf("ET node %d owns a TDMA slot", n)
		}
	}
}

func TestRouteString(t *testing.T) {
	names := map[Route]string{
		RouteLocal: "local", RouteTTP: "TT->TT", RouteCAN: "ET->ET",
		RouteTTtoET: "TT->ET", RouteETtoTT: "ET->TT",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("Route(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
	if Route(99).String() == "" {
		t.Error("unknown route must stringify")
	}
}
