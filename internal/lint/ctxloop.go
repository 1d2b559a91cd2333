package lint

import (
	"go/ast"
	"go/types"
)

// Ctxloop enforces cancellation on the search loops: an exported entry
// point that accepts a context and then spins a counter- or
// condition-driven for loop doing real work (candidate scans, SA
// chains, DSE generations) must observe a context inside the loop —
// ctx.Err() per iteration, a ctx.Done() select, or handing ctx to the
// work it calls. Otherwise cancellation (CLI SIGINT, service job
// cancel, drain grace) is dead until the loop happens to finish.
//
// Range loops are exempt: their trip count is materialized up front,
// and the long ones already fan out through engine.Map/EvaluateAll,
// which are context-aware. So are loops without calls (pure reductions finish in
// microseconds).
var Ctxloop = &Analyzer{
	Name: "ctxloop",
	Doc: "exported functions taking a context must observe it inside counter/condition-driven " +
		"work loops (check ctx.Err(), select on ctx.Done(), or pass ctx to the work)",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !fd.Name.IsExported() {
					continue
				}
				if !fieldListHasCtx(p.Pkg, fd.Type.Params) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					loop, ok := n.(*ast.ForStmt)
					if !ok {
						return true
					}
					if !containsCall(p, loop.Body) || referencesContext(p, loop) {
						return true
					}
					p.Reportf(loop.Pos(), "work loop in exported %s never observes the context — check ctx.Err() per iteration or pass ctx into the loop body", fd.Name.Name)
					return true
				})
			}
		}
	},
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// containsCall reports whether the subtree performs any non-builtin
// call — the signal that a loop does real per-iteration work (append/
// len/make-only collection loops finish in microseconds and are
// exempt).
func containsCall(p *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, builtin := p.Pkg.Info.Uses[id].(*types.Builtin); builtin {
				return !found
			}
			if _, conv := p.Pkg.Info.Uses[id].(*types.TypeName); conv {
				return !found
			}
		}
		found = true
		return false
	})
	return found
}

// referencesContext reports whether any identifier of type
// context.Context is mentioned inside the loop — the parameter itself,
// a derived context, or a closure's own context argument all count.
func referencesContext(p *Pass, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		obj := p.Pkg.Info.Uses[id]
		if obj == nil {
			obj = p.Pkg.Info.Defs[id]
		}
		if obj != nil && obj.Type() != nil && isContextType(obj.Type()) {
			found = true
		}
		return !found
	})
	return found
}
