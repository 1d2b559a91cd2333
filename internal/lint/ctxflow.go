package lint

import (
	"go/ast"
	"go/types"
)

// Ctxflow closes the gap ctxloop leaves between stack frames: ctxloop
// proves a context-taking entry point observes its context inside work
// loops, but nothing stopped a function from *receiving* a context and
// then handing a fresh context.Background() (or TODO()) to a
// context-aware callee — severing the cancellation chain one frame
// down, where CLI SIGINT, service job cancel, and drain grace all stop
// propagating. Any function (or literal) with a context in scope that
// passes Background/TODO to a callee parameter of type context.Context
// is flagged; the caller's ctx (or a context derived from it) must
// flow through instead.
//
// Deliberately detached lifetimes — a goroutine that must outlive the
// request, a cleanup path running after cancellation — are the
// legitimate exceptions and carry //mcs:allow ctxflow with the reason.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "functions that receive a context.Context must pass it (not context.Background/TODO) " +
		"to context-aware callees, keeping the cancellation chain unbroken across frames",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkCtxFlow(p, fd.Body, fieldListHasCtx(p.Pkg, fd.Type.Params))
			}
		}
	},
}

// checkCtxFlow walks body; ctxInScope tracks whether any enclosing
// function (decl or literal) received a context parameter. Literals
// re-enter with their own parameter state OR'd in: a closure inside a
// context-taking function still has the caller's ctx in scope.
func checkCtxFlow(p *Pass, body ast.Node, ctxInScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCtxFlow(p, n.Body, ctxInScope || fieldListHasCtx(p.Pkg, n.Type.Params))
			return false
		case *ast.CallExpr:
			if !ctxInScope {
				return true
			}
			for i, arg := range n.Args {
				name := backgroundOrTODO(p.Pkg, arg)
				if name == "" {
					continue
				}
				if !paramIsContext(p.Pkg, n, i) {
					continue
				}
				p.Reportf(arg.Pos(), "context.%s passed to a context-aware callee while the caller's ctx is in scope — thread the received ctx (or derive from it), or annotate a deliberately detached lifetime with //mcs:allow ctxflow <reason>", name)
			}
		}
		return true
	})
}

// backgroundOrTODO reports whether expr is a direct call to
// context.Background or context.TODO, returning the name.
func backgroundOrTODO(pkg *Package, expr ast.Expr) string {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

// paramIsContext reports whether argument index i of the call lands in
// a context.Context parameter of the callee's signature (resolved
// through the type-checker, so it works for methods, function values,
// and generic instantiations alike).
func paramIsContext(pkg *Package, call *ast.CallExpr, i int) bool {
	sig := callSignature(pkg, call)
	if sig == nil {
		return false
	}
	params := sig.Params()
	if params.Len() == 0 {
		return false
	}
	idx := i
	if idx >= params.Len() {
		if !sig.Variadic() {
			return false
		}
		idx = params.Len() - 1
	}
	return isContextType(params.At(idx).Type())
}

// fieldListHasCtx reports whether a parameter list declares a
// context.Context.
func fieldListHasCtx(pkg *Package, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		if tv, ok := pkg.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// callSignature recovers the signature of the function value being
// called.
func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
