package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sink is one nondeterministic site: a wall-clock read, a global
// math/rand draw, a process environment read, or a range over a map
// that feeds an order-sensitive sink without a sort after it. The
// determinism analyzers share one table of them per package and each
// reports its own rows — wallclock, detrand, maporder, and detimport
// the env reads — so each package is scanned once per Run.
type sink struct {
	analyzer string    // owning analyzer: "wallclock", "detrand", "maporder" or "detimport" (env reads)
	desc     string    // "time.Now", "math/rand.Intn", "os.Getenv", "unsorted map range"
	detail   string    // maporder: what the range feeds ("append", "a channel send", ...)
	pos      token.Pos // the site
}

// sinkTable is one package's sink table, scanned on first use and
// shared by every analyzer's pass over the package.
type sinkTable struct {
	pkg     *Package
	sinks   []sink
	scanned bool
}

func (t *sinkTable) get() []sink {
	if !t.scanned {
		t.sinks, t.scanned = scanSinks(t.pkg), true
	}
	return t.sinks
}

// scanSinks walks every file of pkg once, in source order.
// Package-level initializers (`var started = time.Now()`) are scanned
// too. A map range is judged against the body of its innermost
// enclosing function, where a sort after it establishes the order.
func scanSinks(pkg *Package) []sink {
	var out []sink
	var visit func(body *ast.BlockStmt) func(ast.Node) bool
	visit = func(body *ast.BlockStmt) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					ast.Inspect(n.Body, visit(n.Body))
				}
				return false
			case *ast.FuncLit:
				ast.Inspect(n.Body, visit(n.Body))
				return false
			case *ast.SelectorExpr:
				if s, ok := callSink(pkg, n); ok {
					out = append(out, s)
				}
			case *ast.RangeStmt:
				if !rangesOverMap(pkg, n) {
					return true
				}
				feeds := orderSensitiveSink(pkg, n.Body)
				if feeds == "" || sortedAfter(pkg, body, n.End()) {
					return true
				}
				out = append(out, sink{analyzer: "maporder", desc: "unsorted map range", detail: feeds, pos: n.Pos()})
			}
			return true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, visit(nil))
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
		s.analyzer = "detimport"
	default:
		return sink{}, false
	}
	return s, true
}

// reportSinks reports every site in the pass's package owned by the
// pass's analyzer, with the message msg renders for it.
func reportSinks(p *Pass, msg func(sink) string) {
	for _, s := range p.sinks.get() {
		if s.analyzer == p.Analyzer.Name {
			p.Reportf(s.pos, "%s", msg(s))
		}
	}
}
