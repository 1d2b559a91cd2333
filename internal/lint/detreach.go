package lint

import (
	"go/ast"
	"strings"
)

// Detreach is the transitive determinism proof: from every exported
// entry point of the hard deterministic layers it computes
// reachability over the module call graph to nondeterministic sinks —
// wall-clock reads, global math/rand, process environment reads, and
// unsorted order-sensitive map ranges — and reports the full call
// chain when one is reachable. The intraprocedural analyzers
// (wallclock, detrand, maporder) already flag the sink sites
// themselves; detreach closes the gap they leave open: a hard-layer
// function calling a helper (possibly in a soft layer) that calls
// time.Now passed every per-function check, yet its results depend on
// the clock all the same.
//
// Suppression semantics are deliberately asymmetric. An //mcs:allow
// on a wallclock/detrand/env sink justifies the *local* use ("timing
// is reporting-only here") — it says nothing about callers, so
// detreach ignores it and hard-layer chains to the site still fire;
// such sites must be re-audited when a new chain forms. An //mcs:allow
// maporder, by contrast, is an order-independence proof ("the fold is
// commutative"), which holds for every caller — suppressed map ranges
// are not sinks.
//
// Direct sinks inside an entry point itself (chain length 1) are the
// intraprocedural analyzers' findings and are not re-reported here.
var Detreach = &Analyzer{
	Name: "detreach",
	Doc: "proves hard-layer exported entry points cannot reach nondeterministic sinks " +
		"(wall clock, global math/rand, os.Getenv, unsorted map ranges) through any call chain",
	Hard: inDetLayer,
	Run: func(p *Pass) {
		if !inDetLayer(p.Pkg.Path) {
			return
		}
		graph := p.Module.Graph()
		sinks := map[*Node][]sink{}
		for _, pkg := range p.Module.Pkgs {
			for _, s := range p.Module.sinksOf(pkg) {
				// A reasoned maporder directive is an order-independence
				// proof — valid for callers too, so not a sink.
				if s.analyzer == "maporder" && s.allowed {
					continue
				}
				if n := graph.nodeOf(pkg, s.fn); n != nil {
					sinks[n] = append(sinks[n], s)
				}
			}
		}
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				entry := graph.nodeOf(p.Pkg, fd)
				if entry == nil {
					continue
				}
				chain := graph.ReachChain(entry, func(n *Node) bool {
					return n != entry && len(sinks[n]) > 0
				})
				if chain == nil {
					continue
				}
				s := sinks[chain[len(chain)-1]][0]
				frames := make([]Frame, 0, len(chain)+1)
				names := make([]string, 0, len(chain)+1)
				for _, n := range chain {
					pos := p.Pkg.Fset.Position(n.Pos)
					frames = append(frames, Frame{Func: n.Name, File: pos.Filename, Line: pos.Line})
					names = append(names, n.Name)
				}
				spos := p.Pkg.Fset.Position(s.pos)
				frames = append(frames, Frame{Func: s.desc, File: spos.Filename, Line: spos.Line})
				names = append(names, s.desc)
				suffix := ""
				if s.allowed {
					suffix = " (the sink's //mcs:allow justifies only its own package — it does not exempt hard-layer callers)"
				}
				p.ReportChain(fd.Name.Pos(), frames,
					"exported %s reaches nondeterministic %s — call chain: %s%s",
					fd.Name.Name, s.desc, strings.Join(names, " -> "), suffix)
			}
		}
	},
}
