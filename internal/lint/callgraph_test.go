package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadGraph builds the call graph over the given fixture packages
// through the shared test loader.
func loadGraph(t *testing.T, fixtures ...string) *Graph {
	t.Helper()
	loader := sharedLoader(t)
	patterns := make([]string, len(fixtures))
	for i, fixture := range fixtures {
		patterns[i] = "./internal/lint/testdata/src/" + fixture
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", pkg.Path, terr)
		}
	}
	mod := &Module{Pkgs: pkgs}
	return mod.Graph()
}

func findNode(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("call graph has no node %q", name)
	return nil
}

func hasEdge(n *Node, callee string, kind EdgeKind) bool {
	for _, e := range n.Edges {
		if e.Callee.Name == callee && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestCallGraphResolution(t *testing.T) {
	g := loadGraph(t, "callgraph/a")

	if n := findNode(t, g, "a.Passer"); !hasEdge(n, "a.apply", EdgeStatic) {
		t.Errorf("Passer: missing static edge to apply; edges: %v", edgeNames(n))
	} else if !hasEdge(n, "a.double", EdgePassed) {
		t.Errorf("Passer: missing passed edge to double; edges: %v", edgeNames(n))
	}

	// The parameter call inside apply adds no edges: the pass sites
	// already account for the callback, so context-insensitive merging
	// through shared helpers cannot fabricate chains.
	if n := findNode(t, g, "a.apply"); len(n.Edges) != 0 {
		t.Errorf("apply: parameter call should add no edges, got %v", edgeNames(n))
	}

	ui := findNode(t, g, "a.UseIface")
	if !hasEdge(ui, "(a.Adder).Do", EdgeInterface) || !hasEdge(ui, "(a.Doubler).Do", EdgeInterface) {
		t.Errorf("UseIface: want interface edges to both implementors, got %v", edgeNames(ui))
	}

	if n := findNode(t, g, "a.CallMade"); !hasEdge(n, "a.MakeAdder$1", EdgeDynamic) {
		t.Errorf("CallMade: missing dynamic edge to the returned literal; edges: %v", edgeNames(n))
	}

	if n := findNode(t, g, "a.CallTable"); !hasEdge(n, "a.double", EdgeDynamic) {
		t.Errorf("CallTable: missing signature-fallback edge to double; edges: %v", edgeNames(n))
	}

	if n := findNode(t, g, "a.double"); !n.AddressTaken {
		t.Error("double: escapes via a passed argument and a map element, should be address-taken")
	}
	if n := findNode(t, g, "a.Passer"); n.AddressTaken {
		t.Error("Passer: never escapes, should not be address-taken")
	}
}

// TestCallGraphPackageLevelStores covers hook tables initialized at
// package level: the store lives outside any function body yet calls
// through the field still resolve to the stored function.
func TestCallGraphPackageLevelStores(t *testing.T) {
	g := loadGraph(t, "detreach/core")
	if n := findNode(t, g, "core.Dyn"); !hasEdge(n, "core.jitter", EdgeDynamic) {
		t.Errorf("Dyn: missing dynamic edge through the package-level field store; edges: %v", edgeNames(n))
	}
}

func TestReachChain(t *testing.T) {
	g := loadGraph(t, "detreach/core")
	entry := findNode(t, g, "core.Broken")
	chain := g.ReachChain(entry, func(n *Node) bool { return n.Name == "core.helperB" })
	var names []string
	for _, n := range chain {
		names = append(names, n.Name)
	}
	want := []string{"core.Broken", "core.helperA", "core.helperB"}
	if len(names) != len(want) {
		t.Fatalf("ReachChain: got %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ReachChain: got %v, want %v", names, want)
		}
	}
	if c := g.ReachChain(entry, func(n *Node) bool { return n.Name == "core.Clean" }); c != nil {
		t.Errorf("ReachChain to unreachable node: got %v, want nil", c)
	}
}

// TestGraphDumpDeterministic builds the graph twice and compares the
// dumps byte for byte — the graph itself must honour the determinism
// invariants it helps enforce — and checks that every file name goes
// through the relativizer, so dumps from two checkouts diff cleanly.
func TestGraphDumpDeterministic(t *testing.T) {
	loader := sharedLoader(t)
	pkgs, err := loader.Load("./internal/lint/testdata/src/callgraph/a", "./internal/lint/testdata/src/detreach/core")
	if err != nil {
		t.Fatal(err)
	}
	root := moduleRoot(t)
	rel := func(file string) string {
		r, err := filepath.Rel(root, file)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := buildGraph(pkgs).Dump(pkgs[0].Fset, rel)
	b := buildGraph(pkgs).Dump(pkgs[0].Fset, rel)
	if a != b {
		t.Error("two builds of the same graph dumped differently")
	}
	if a == "" {
		t.Error("dump is empty")
	}
	if strings.Contains(a, root) {
		t.Errorf("dump names files by absolute path:\n%s", a)
	}
	if !strings.Contains(a, "at internal/lint/testdata/src/detreach/core/core.go:") {
		t.Errorf("dump lacks module-relative edge positions:\n%s", a)
	}
}

func edgeNames(n *Node) []string {
	var out []string
	for _, e := range n.Edges {
		out = append(out, string(e.Kind)+":"+e.Callee.Name)
	}
	return out
}
