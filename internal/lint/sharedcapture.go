package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Sharedcapture is the static complement to the race detector, which
// only sees the interleavings a run happens to execute. It inspects
// the closures that actually run concurrently in this repo — function
// literals submitted to the engine.Map/EvaluateAll batch
// primitives and literals launched by go statements (annotated or not;
// poolonly polices the annotation) — and flags captures that break the
// batch contract:
//
//   - A pool-batch closure that directly writes a captured variable
//     declared outside the closure. Batch items run concurrently, so
//     sibling items race on the variable and the reduction order
//     becomes worker-count-dependent even when the race detector stays
//     quiet. Index-disjoint writes (out[i] = v) are the sanctioned
//     idiom and are not flagged.
//   - A goroutine closure that directly writes a captured variable the
//     enclosing function also writes — a concurrent write pair with no
//     ordering between them.
//   - A batch closure capturing a loop induction variable declared
//     outside its loop (`var i int; for i = ...`): every item sees the
//     shared variable's final value, so the index-disjointness the
//     batch relies on silently collapses. (Loop variables declared by
//     the loop itself are per-iteration since Go 1.22 and are safe.)
//
// Closures that serialize access through a sync.Mutex/RWMutex Lock are
// skipped — guarded shared state is a deliberate, race-free design and
// order-sensitivity there is maporder territory. Legitimate
// exceptions (a monotonic flag where last-write-wins is provably
// order-independent) carry //mcs:allow sharedcapture with the proof.
var Sharedcapture = &Analyzer{
	Name: "sharedcapture",
	Doc: "flags pool-submitted or go-launched closures that write shared captured variables " +
		"or capture loop variables shared across batch items — the static race complement",
	Run: func(p *Pass) {
		if hasSegments(p.Pkg.Path, "internal", "engine") {
			return // the pool's own internals write result slots by design
		}
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkSharedCapture(p, fd)
			}
		}
	},
}

func checkSharedCapture(p *Pass, fd *ast.FuncDecl) {
	pkg := p.Pkg
	batch := batchClosures(pkg, fd)
	writes := directWrites(pkg, fd.Body)

	// Pool-batch closures: any direct write to a variable declared
	// outside the closure races with sibling batch items.
	for _, lit := range batch {
		if mutexGuarded(pkg, lit) {
			continue
		}
		for obj, positions := range writes {
			if declaredWithin(obj, lit) {
				continue
			}
			for _, pos := range positions {
				if within(pos, lit) {
					p.Reportf(pos, "pool-batch closure writes captured %q declared outside it — sibling batch items race on it; write an index-disjoint slot or reduce after the batch, or prove order-independence with //mcs:allow sharedcapture <reason>", obj.Name())
				}
			}
		}
		for obj, loopPos := range sharedLoopVars(pkg, fd, lit) {
			if capturedBy(pkg, lit, obj) {
				p.Reportf(lit.Pos(), "pool-batch closure captures loop variable %q declared outside its loop (line %d) — items share one variable instead of per-iteration copies, breaking index-disjointness; declare it in the loop header or pass it as an argument", obj.Name(), pkg.Fset.Position(loopPos).Line)
			}
		}
	}

	// Goroutine closures: a captured write paired with a write outside
	// the closure is a concurrent write pair.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok || mutexGuarded(pkg, lit) {
			return true
		}
		for obj, positions := range writes {
			if declaredWithin(obj, lit) {
				continue
			}
			var inside, outside bool
			var insidePos token.Pos
			for _, pos := range positions {
				if within(pos, lit) {
					inside = true
					insidePos = pos
				} else {
					outside = true
				}
			}
			if inside && outside {
				p.Reportf(insidePos, "goroutine writes captured %q which the enclosing function also writes — concurrent unsynchronized write pair; guard both sides or communicate over a channel, or prove safety with //mcs:allow sharedcapture <reason>", obj.Name())
			}
		}
		return true
	})
}

// batchClosures collects the function literals of fd that end up in an
// engine batch (engine.Map/EvaluateAll): literals passed directly
// as arguments to a call into internal/engine, and literals stored
// (assigned, appended, indexed) into a variable that is passed to such
// a call.
func batchClosures(pkg *Package, fd *ast.FuncDecl) []*ast.FuncLit {
	batchVars := map[types.Object]bool{}
	var lits []*ast.FuncLit
	seen := map[*ast.FuncLit]bool{}
	add := func(lit *ast.FuncLit) {
		if lit != nil && !seen[lit] {
			seen[lit] = true
			lits = append(lits, lit)
		}
	}
	// Pass 1: engine call sites — literal args and job-slice variables.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isEngineCall(pkg, call) {
			return true
		}
		for _, arg := range call.Args {
			switch arg := ast.Unparen(arg).(type) {
			case *ast.FuncLit:
				add(arg)
			case *ast.Ident:
				if obj := pkg.Info.Uses[arg]; obj != nil {
					batchVars[obj] = true
				}
			case *ast.CallExpr:
				// core.EvalFunc(fn) style conversions and wrappers:
				// a literal inside still reaches the pool.
				ast.Inspect(arg, func(c ast.Node) bool {
					if l, ok := c.(*ast.FuncLit); ok {
						add(l)
						return false
					}
					return true
				})
			}
		}
		return true
	})
	if len(batchVars) > 0 {
		// Pass 2: literals stored into the job-slice variables.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				var obj types.Object
				switch lhs := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					obj = pkg.Info.Defs[lhs]
					if obj == nil {
						obj = pkg.Info.Uses[lhs]
					}
				case *ast.IndexExpr:
					if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
						obj = pkg.Info.Uses[id]
					}
				}
				if obj == nil || !batchVars[obj] {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(as.Rhs) == len(as.Lhs):
					rhs = as.Rhs[i]
				case len(as.Rhs) == 1:
					rhs = as.Rhs[0]
				default:
					continue
				}
				ast.Inspect(rhs, func(c ast.Node) bool {
					if l, ok := c.(*ast.FuncLit); ok {
						add(l)
						return false
					}
					return true
				})
			}
			return true
		})
	}
	return lits
}

// isEngineCall reports whether the call's static callee lives in the
// engine package (the batch primitives).
func isEngineCall(pkg *Package, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return hasSegments(fn.Pkg().Path(), "internal", "engine")
}

// directWrites maps each written variable object to the positions of
// its direct writes (assignment to the bare identifier or ++/--)
// anywhere in body, closures included. Writes through an index or
// field are not collected: out[i] = v is the sanctioned idiom.
func directWrites(pkg *Package, body ast.Node) map[types.Object][]token.Pos {
	writes := map[types.Object][]token.Pos{}
	record := func(id *ast.Ident) {
		if id.Name == "_" {
			return
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return
		}
		if _, ok := obj.(*types.Var); !ok {
			return
		}
		writes[obj] = append(writes[obj], id.Pos())
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// := declares (Defs, not Uses) and never aliases an outer
			// variable; plain = and op= to an existing object do.
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					record(id)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				record(id)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if id, ok := n.Key.(*ast.Ident); ok {
					record(id)
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					record(id)
				}
			}
		}
		return true
	})
	return writes
}

// sharedLoopVars returns, for each loop lexically enclosing lit inside
// fd, the induction variables the loop writes that are declared
// outside the loop itself — the pre-Go-1.22 sharing hazard — mapped to
// the loop position.
func sharedLoopVars(pkg *Package, fd *ast.FuncDecl, lit *ast.FuncLit) map[types.Object]token.Pos {
	out := map[types.Object]token.Pos{}
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			var loop ast.Node
			switch c := c.(type) {
			case *ast.ForStmt:
				loop = c
			case *ast.RangeStmt:
				loop = c
			default:
				return true
			}
			if !(loop.Pos() <= lit.Pos() && lit.End() <= loop.End()) {
				return true // lit not inside this loop; keep scanning siblings
			}
			for obj := range loopInductionVars(pkg, c) {
				if obj.Pos() < loop.Pos() || obj.Pos() > loop.End() {
					out[obj] = loop.Pos()
				}
			}
			return true
		})
	}
	visit(fd.Body)
	return out
}

// loopInductionVars collects the variables a loop's own machinery
// assigns: for-statement init/post targets and assign-form range keys.
func loopInductionVars(pkg *Package, loop ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(id *ast.Ident) {
		if obj := pkg.Info.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	switch loop := loop.(type) {
	case *ast.ForStmt:
		for _, stmt := range []ast.Stmt{loop.Init, loop.Post} {
			switch stmt := stmt.(type) {
			case *ast.AssignStmt:
				if stmt.Tok == token.ASSIGN {
					for _, lhs := range stmt.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							add(id)
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(stmt.X).(*ast.Ident); ok {
					add(id)
				}
			}
		}
	case *ast.RangeStmt:
		if loop.Tok == token.ASSIGN {
			if id, ok := loop.Key.(*ast.Ident); ok {
				add(id)
			}
			if id, ok := loop.Value.(*ast.Ident); ok {
				add(id)
			}
		}
	}
	return out
}

// capturedBy reports whether lit's body references obj.
func capturedBy(pkg *Package, lit *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// mutexGuarded reports whether the closure serializes itself with a
// sync Lock — guarded shared state is deliberate, not a race.
func mutexGuarded(pkg *Package, lit *ast.FuncLit) bool {
	guarded := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return !guarded
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return !guarded
		}
		switch fn.Name() {
		case "Lock", "RLock":
			guarded = true
		}
		return !guarded
	})
	return guarded
}

// declaredWithin reports whether obj's declaration lies inside lit.
func declaredWithin(obj types.Object, lit *ast.FuncLit) bool {
	return within(obj.Pos(), lit)
}

// within reports whether pos falls inside lit's source range.
func within(pos token.Pos, lit *ast.FuncLit) bool {
	return lit.Pos() <= pos && pos <= lit.End()
}
