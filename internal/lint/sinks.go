package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sink is one nondeterministic site: a wall-clock read, a global
// math/rand draw, a process environment read, or a range over a map
// that feeds an order-sensitive sink without a sort after it. The
// determinism analyzers share one table of them per package —
// wallclock, detrand and maporder report their own sites from it, and
// detreach maps every site to its call-graph node — so each package is
// scanned once per Run.
type sink struct {
	analyzer string    // owning analyzer: "wallclock", "detrand", "maporder" or "detreach" (env reads)
	desc     string    // "time.Now", "math/rand.Intn", "os.Getenv", "unsorted map range"
	detail   string    // maporder: what the range feeds ("append", "a channel send", ...)
	pos      token.Pos // the site
	fn       ast.Node  // innermost enclosing *ast.FuncDecl or *ast.FuncLit; nil at package level
	allowed  bool      // a reasoned //mcs:allow <analyzer> covers the site
}

// sinksOf returns pkg's sink table, scanning the package on first use.
func (m *Module) sinksOf(pkg *Package) []sink {
	if s, ok := m.sinks[pkg]; ok {
		return s
	}
	if m.sinks == nil {
		m.sinks = map[*Package][]sink{}
	}
	s := scanSinks(pkg)
	m.sinks[pkg] = s
	return s
}

// scanSinks walks every file of pkg once, in source order, tracking the
// innermost enclosing function of each site. Package-level initializers
// (`var started = time.Now()`) are scanned too; their sinks have no
// enclosing function.
func scanSinks(pkg *Package) []sink {
	dirs := parseDirectives(pkg)
	var out []sink
	add := func(s sink) {
		s.allowed = directiveFor(dirs, s.analyzer, pkg.Fset.Position(s.pos)) != nil
		out = append(out, s)
	}
	var visit func(fn ast.Node, body *ast.BlockStmt) func(ast.Node) bool
	visit = func(fn ast.Node, body *ast.BlockStmt) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					ast.Inspect(n.Body, visit(n, n.Body))
				}
				return false
			case *ast.FuncLit:
				ast.Inspect(n.Body, visit(n, n.Body))
				return false
			case *ast.SelectorExpr:
				if s, ok := callSink(pkg, n); ok {
					s.fn = fn
					add(s)
				}
			case *ast.RangeStmt:
				if !rangesOverMap(pkg, n) {
					return true
				}
				feeds := orderSensitiveSink(pkg, n.Body)
				if feeds == "" || sortedAfter(pkg, body, n.End()) {
					return true
				}
				add(sink{analyzer: "maporder", desc: "unsorted map range", detail: feeds, pos: n.Pos(), fn: fn})
			}
			return true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, visit(nil, nil))
	}
	return out
}

// callSink classifies a selector naming a package-level function of
// time, math/rand or os. Methods never match: Duration/Time arithmetic
// is pure, and methods on an injected *rand.Rand are the sanctioned
// path.
func callSink(pkg *Package, sel *ast.SelectorExpr) (sink, bool) {
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return sink{}, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return sink{}, false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	s := sink{desc: path + "." + name, pos: sel.Pos()}
	switch {
	case path == "time" && wallclockFuncs[name]:
		s.analyzer = "wallclock"
	case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name]:
		s.analyzer = "detrand"
	case path == "os" && (name == "Getenv" || name == "LookupEnv" || name == "Environ"):
		s.analyzer = "detreach"
	default:
		return sink{}, false
	}
	return s, true
}

// reportSinks reports every site in the pass's package owned by the
// pass's analyzer, with the message msg renders for it.
func reportSinks(p *Pass, msg func(sink) string) {
	for _, s := range p.Module.sinksOf(p.Pkg) {
		if s.analyzer == p.Analyzer.Name {
			p.Reportf(s.pos, "%s", msg(s))
		}
	}
}
