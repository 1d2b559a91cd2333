package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph the
// interprocedural analyzers (detreach, and the -graph debug dump)
// traverse. The graph is deliberately dependency-free: it works off
// the same go/ast + go/types results the Loader already produced, and
// it is built once per Run and shared by every analyzer that needs it.
//
// Resolution rules, in decreasing precision:
//
//   - Direct calls (`f()`, `pkg.F()`, `recv.M()` on a concrete
//     receiver) resolve through the type-checker to exactly one callee.
//   - Interface method calls link to every module method with the same
//     name and a compatible receiver-stripped signature (class-
//     hierarchy-analysis style: no points-to, so all implementors are
//     possible callees).
//   - A function value passed as a call argument links the *passing*
//     function to the passed callee ("the callee may invoke what I
//     handed it"), and calls through a parameter inside the callee add
//     no further edges — the pass site already accounted for them.
//     This keeps callback chains (engine.Map/Sweep batches) precise instead
//     of merging every call site's candidates.
//   - Function values stored into a struct field link calls through
//     that field to exactly the values stored into it anywhere in the
//     module; likewise for package-level and local variables.
//   - Everything else that takes a function's address (composite
//     literals, map/slice elements, returns, channel sends) marks the
//     function address-taken; a dynamic call that none of the rules
//     above resolve links to every address-taken function with a
//     compatible signature.
//
// The approximation is sound for the repo's idioms with one documented
// exception: a function value that escapes through an unanalyzed
// stdlib container (e.g. stored in a sync.Map) and is called back is
// not tracked. docs/ARCHITECTURE.md §9.5 records the limits.

// EdgeKind classifies how a call edge was resolved.
type EdgeKind string

const (
	// EdgeStatic is a direct call resolved to one callee.
	EdgeStatic EdgeKind = "static"
	// EdgeInterface is an interface method call linked to a compatible
	// concrete method.
	EdgeInterface EdgeKind = "interface"
	// EdgePassed links a function to a callback it hands to a call.
	EdgePassed EdgeKind = "passed"
	// EdgeDynamic is a call through a function value, linked by store
	// tracking or signature match.
	EdgeDynamic EdgeKind = "dynamic"
)

// Node is one function in the call graph: a declared function or
// method, or a function literal.
type Node struct {
	// Name is the diagnostic display name: "opt.OptimizeSchedule",
	// "(*service.Service).Drain", "solve.Explore$1" for the first
	// literal inside Explore, or "util.Clock$1" for the first literal
	// in package-level var Clock's initializer.
	Name string
	// Obj is the declared *types.Func (nil for literals).
	Obj *types.Func
	// Lit is the literal (nil for declared functions).
	Lit *ast.FuncLit
	// Pkg is the package the body lives in.
	Pkg *Package
	// Pos is the declaration (or literal) position.
	Pos token.Pos
	// Edges are the node's outgoing calls in source order.
	Edges []Edge
	// AddressTaken reports that the function's value escapes somewhere
	// (assigned, passed, stored, returned).
	AddressTaken bool

	body   *ast.BlockStmt
	sig    *types.Signature
	params map[types.Object]bool
	// enclosing is the node lexically containing a literal (nil for
	// declared functions).
	enclosing *Node
}

// Edge is one resolved call from a node.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	Kind   EdgeKind
}

// Graph is the module-wide call graph over the loaded packages.
type Graph struct {
	// Nodes holds every function in a deterministic order (package
	// path, then position).
	Nodes []*Node

	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	// fieldStores / varStores map a struct field or variable object to
	// the functions stored into it anywhere in the module.
	fieldStores map[types.Object][]*Node
	varStores   map[types.Object][]*Node
	// returns maps a function to the candidate functions it returns.
	returns map[*Node][]*Node
	// addressTaken lists escaping functions for the signature fallback.
	addressTaken []*Node
}

// NodeFor returns the graph node of a declared function or method.
func (g *Graph) NodeFor(fn *types.Func) *Node { return g.byObj[fn] }

// NodeForLit returns the graph node of a function literal.
func (g *Graph) NodeForLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// nodeOf returns the graph node of a declaration or literal of pkg
// (nil for anything else, including a nil fn).
func (g *Graph) nodeOf(pkg *Package, fn ast.Node) *Node {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
		return g.NodeFor(obj)
	case *ast.FuncLit:
		return g.NodeForLit(fn)
	}
	return nil
}

// buildGraph constructs the call graph over pkgs in two passes: first
// index every function and collect stores/escapes, then resolve the
// call sites (which need the complete store and address-taken sets).
func buildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		byObj:       map[*types.Func]*Node{},
		byLit:       map[*ast.FuncLit]*Node{},
		fieldStores: map[types.Object][]*Node{},
		varStores:   map[types.Object][]*Node{},
		returns:     map[*Node][]*Node{},
	}
	for _, pkg := range pkgs {
		g.indexPackage(pkg)
	}
	for _, pkg := range pkgs {
		g.collectStores(pkg)
	}
	for _, n := range g.Nodes {
		if n.AddressTaken {
			g.addressTaken = append(g.addressTaken, n)
		}
	}
	for _, n := range g.Nodes {
		g.resolveCalls(n)
	}
	return g
}

// indexPackage creates nodes for every declared function/method and
// every function literal in pkg.
func (g *Graph) indexPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				g.indexVarLiterals(pkg, gd)
				continue
			}
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &Node{
				Name: displayName(pkg, obj),
				Obj:  obj,
				Pkg:  pkg,
				Pos:  fd.Name.Pos(),
				body: fd.Body,
			}
			n.sig, _ = obj.Type().(*types.Signature)
			n.params = paramObjects(pkg, fd.Type, fd.Recv)
			g.byObj[obj] = n
			g.Nodes = append(g.Nodes, n)
			g.indexLiterals(pkg, n.Name, n, fd.Body)
		}
	}
}

// indexVarLiterals creates nodes for the function literals in a
// package-level var declaration's initializers, named after the spec's
// first variable ("util.Clock$1"), so calls through package-level
// function variables reach their bodies. They have no enclosing node.
func (g *Graph) indexVarLiterals(pkg *Package, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			g.indexLiterals(pkg, pkgShortName(pkg)+"."+vs.Names[0].Name, nil, vs)
		}
	}
}

// indexLiterals creates nodes for the function literals inside body,
// named prefix$1, prefix$2, ... and owned by the enclosing node,
// stopping at each literal's boundary (nested literals belong to their
// parent literal's node).
func (g *Graph) indexLiterals(pkg *Package, prefix string, enclosing *Node, body ast.Node) {
	count := 0
	inspectOwn(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		count++
		ln := &Node{
			Name:      fmt.Sprintf("%s$%d", prefix, count),
			Lit:       lit,
			Pkg:       pkg,
			Pos:       lit.Pos(),
			body:      lit.Body,
			enclosing: enclosing,
		}
		if tv, ok := pkg.Info.Types[lit]; ok {
			ln.sig, _ = tv.Type.(*types.Signature)
		}
		ln.params = paramObjects(pkg, lit.Type, nil)
		g.byLit[lit] = ln
		g.Nodes = append(g.Nodes, ln)
		g.indexLiterals(pkg, ln.Name, ln, lit.Body)
		return false
	})
}

// inspectOwn walks root like ast.Inspect but does not descend into
// nested function literals (their bodies belong to other nodes). The
// literal node itself is still visited, so callers can handle it.
func inspectOwn(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil || n == root {
			return true
		}
		if !fn(n) {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
}

// paramObjects collects the parameter (and receiver) objects of a
// function so calls through them can be recognized and skipped.
func paramObjects(pkg *Package, ft *ast.FuncType, recv *ast.FieldList) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	add(recv)
	add(ft.Params)
	return out
}

// pkgShortName is the last segment of pkg's import path.
func pkgShortName(pkg *Package) string {
	return pkg.Path[strings.LastIndex(pkg.Path, "/")+1:]
}

// displayName renders "pkg.Func", "(*pkg.T).Method", or "(pkg.T).Method".
func displayName(pkg *Package, fn *types.Func) string {
	short := pkgShortName(pkg)
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return short + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
		ptr = "*"
	}
	name := recv.String()
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return fmt.Sprintf("(%s%s.%s).%s", ptr, short, name, fn.Name())
}

// collectStores records, for every node body in pkg, which functions
// are stored into fields/variables, returned, or otherwise escape.
// Package-level var initializers (hook tables, default configs) live
// outside any function body and are walked separately.
func (g *Graph) collectStores(pkg *Package) {
	for _, n := range g.Nodes {
		if n.Pkg != pkg {
			continue
		}
		g.collectNodeStores(n)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				g.collectValueSpec(pkg, vs)
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if cl, ok := n.(*ast.CompositeLit); ok {
							g.collectCompositeStores(pkg, cl)
						}
						return true
					})
				}
			}
		}
	}
}

// collectValueSpec records function values bound by a var declaration.
func (g *Graph) collectValueSpec(pkg *Package, vs *ast.ValueSpec) {
	for i, rhs := range vs.Values {
		cands := g.valueCandidates(pkg, rhs)
		if len(cands) == 0 {
			continue
		}
		g.markEscaped(cands)
		if i < len(vs.Names) && len(vs.Values) == len(vs.Names) {
			if obj := pkg.Info.Defs[vs.Names[i]]; obj != nil {
				g.varStores[obj] = append(g.varStores[obj], cands...)
			}
		}
	}
}

func (g *Graph) collectNodeStores(n *Node) {
	pkg := n.Pkg
	inspectOwn(n.body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				cands := g.valueCandidates(pkg, rhs)
				if len(cands) == 0 {
					continue
				}
				g.markEscaped(cands)
				if i < len(node.Lhs) && len(node.Rhs) == len(node.Lhs) {
					g.recordStore(pkg, node.Lhs[i], cands)
				}
			}
		case *ast.ValueSpec:
			g.collectValueSpec(pkg, node)
		case *ast.CompositeLit:
			g.collectCompositeStores(pkg, node)
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				cands := g.valueCandidates(pkg, res)
				if len(cands) == 0 {
					continue
				}
				g.markEscaped(cands)
				g.returns[n] = append(g.returns[n], cands...)
			}
		case *ast.SendStmt:
			g.markEscaped(g.valueCandidates(pkg, node.Value))
		case *ast.CallExpr:
			// Arguments that are function values escape (the callee may
			// store them); the precise caller→callback edge is added in
			// resolveCalls.
			for _, arg := range node.Args {
				g.markEscaped(g.valueCandidates(pkg, arg))
			}
		}
		return true
	})
}

// collectCompositeStores maps composite-literal elements to their
// struct fields so calls through those fields resolve precisely.
func (g *Graph) collectCompositeStores(pkg *Package, cl *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return
	}
	st, _ := tv.Type.Underlying().(*types.Struct)
	for i, elt := range cl.Elts {
		var value ast.Expr = elt
		var field types.Object
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok && st != nil {
				if obj := pkg.Info.Uses[id]; obj != nil {
					field = obj
				}
			}
		} else if st != nil && i < st.NumFields() {
			field = st.Field(i)
		}
		cands := g.valueCandidates(pkg, value)
		if len(cands) == 0 {
			continue
		}
		g.markEscaped(cands)
		if field != nil {
			g.fieldStores[field] = append(g.fieldStores[field], cands...)
		}
	}
}

// recordStore attributes candidate functions to the variable or struct
// field the LHS expression denotes.
func (g *Graph) recordStore(pkg *Package, lhs ast.Expr, cands []*Node) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := pkg.Info.Defs[lhs]
		if obj == nil {
			obj = pkg.Info.Uses[lhs]
		}
		if obj != nil {
			g.varStores[obj] = append(g.varStores[obj], cands...)
		}
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[lhs.Sel]; obj != nil {
			g.fieldStores[obj] = append(g.fieldStores[obj], cands...)
		}
	}
}

// markEscaped flags candidates as address-taken.
func (g *Graph) markEscaped(cands []*Node) {
	for _, c := range cands {
		c.AddressTaken = true
	}
}

// valueCandidates resolves an expression to the function nodes it may
// evaluate to: a literal is itself; a function identifier or method
// value is its node; a call of append is the union of its function
// arguments (the jobs-slice build idiom); a call of a known function
// is what that function returns. Non-function expressions yield nil.
func (g *Graph) valueCandidates(pkg *Package, expr ast.Expr) []*Node {
	switch expr := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		if n := g.byLit[expr]; n != nil {
			return []*Node{n}
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[expr].(*types.Func); ok {
			if n := g.byObj[fn]; n != nil {
				return []*Node{n}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[expr.Sel].(*types.Func); ok {
			if n := g.byObj[fn]; n != nil {
				return []*Node{n}
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(expr.Fun).(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				var out []*Node
				for _, arg := range expr.Args {
					out = append(out, g.valueCandidates(pkg, arg)...)
				}
				return out
			}
		}
		// Conversions wrap a function value without changing it
		// (core.EvalFunc(fn)).
		if tv, ok := pkg.Info.Types[expr.Fun]; ok && tv.IsType() && len(expr.Args) == 1 {
			return g.valueCandidates(pkg, expr.Args[0])
		}
		if callee := g.staticCallee(pkg, expr); callee != nil {
			return g.returns[callee]
		}
	}
	return nil
}

// staticCallee resolves a call expression to its single declared
// callee node, or nil for dynamic/interface/stdlib calls.
func (g *Graph) staticCallee(pkg *Package, call *ast.CallExpr) *Node {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil
		}
	}
	return g.byObj[fn]
}

// resolveCalls adds n's outgoing edges.
func (g *Graph) resolveCalls(n *Node) {
	pkg := n.Pkg
	inspectOwn(n.body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Type conversions are not calls.
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		g.resolveOneCall(n, call)
		// Callback arguments: the passing function is linked to what it
		// hands over, whichever callee ends up invoking it.
		for _, arg := range call.Args {
			for _, cand := range g.valueCandidates(pkg, arg) {
				n.addEdge(cand, arg.Pos(), EdgePassed)
			}
		}
		return true
	})
	// A go/defer of a literal that is never otherwise referenced still
	// runs: immediate literal calls are CallExprs and already covered.
}

func (g *Graph) resolveOneCall(n *Node, call *ast.CallExpr) {
	pkg := n.Pkg
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.FuncLit:
		if ln := g.byLit[fun]; ln != nil {
			n.addEdge(ln, call.Pos(), EdgeStatic)
		}
		return
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			if callee := g.byObj[obj]; callee != nil {
				n.addEdge(callee, call.Pos(), EdgeStatic)
			}
			return
		case *types.Builtin, *types.TypeName, nil:
			return
		case *types.Var:
			g.resolveValueCall(n, call, fun, obj)
			return
		}
	case *ast.SelectorExpr:
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			sig, _ := obj.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				g.resolveInterfaceCall(n, call, obj)
				return
			}
			if callee := g.byObj[obj]; callee != nil {
				n.addEdge(callee, call.Pos(), EdgeStatic)
			}
			return
		case *types.Var:
			g.resolveValueCall(n, call, fun.Sel, obj)
			return
		}
	}
	// Fully dynamic expression (index into a slice of funcs, call
	// returning a func called immediately, ...): try value resolution,
	// then the signature fallback.
	g.dynamicEdges(n, call, g.valueCandidates(pkg, fun))
}

// resolveValueCall handles a call through a named function value: a
// parameter (skipped — accounted at the pass sites), a tracked
// variable or field, or the signature fallback.
func (g *Graph) resolveValueCall(n *Node, call *ast.CallExpr, id *ast.Ident, obj types.Object) {
	if n.params[obj] || (n.enclosing != nil && enclosingParam(n, obj)) {
		return // callback parameter: pass sites own these edges
	}
	if stores := g.varStores[obj]; len(stores) > 0 {
		g.dynamicEdges(n, call, stores)
		return
	}
	if stores := g.fieldStores[obj]; len(stores) > 0 {
		g.dynamicEdges(n, call, stores)
		return
	}
	g.dynamicEdges(n, call, nil)
}

// enclosingParam reports whether obj is a parameter of any function
// lexically enclosing the literal node n (a captured callback).
func enclosingParam(n *Node, obj types.Object) bool {
	for e := n.enclosing; e != nil; e = e.enclosing {
		if e.params[obj] {
			return true
		}
	}
	return false
}

// resolveInterfaceCall links an interface method call to every module
// method with the same name and a compatible signature.
func (g *Graph) resolveInterfaceCall(n *Node, call *ast.CallExpr, m *types.Func) {
	msig, _ := m.Type().(*types.Signature)
	for _, cand := range g.Nodes {
		if cand.Obj == nil || cand.Obj.Name() != m.Name() {
			continue
		}
		csig, _ := cand.Obj.Type().(*types.Signature)
		if csig == nil || csig.Recv() == nil {
			continue
		}
		if sigCompatible(msig, csig) {
			n.addEdge(cand, call.Pos(), EdgeInterface)
		}
	}
}

// dynamicEdges links a dynamic call to its candidates, falling back to
// every address-taken function with a compatible signature when no
// store tracking narrowed the set.
func (g *Graph) dynamicEdges(n *Node, call *ast.CallExpr, cands []*Node) {
	if len(cands) == 0 {
		sig := callSignature(n.Pkg, call)
		if sig == nil {
			return
		}
		for _, cand := range g.addressTaken {
			if cand.sig != nil && sigCompatible(sig, cand.sig) {
				n.addEdge(cand, call.Pos(), EdgeDynamic)
			}
		}
		return
	}
	for _, cand := range cands {
		n.addEdge(cand, call.Pos(), EdgeDynamic)
	}
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

// sigCompatible reports whether two signatures could describe the same
// function value, ignoring receivers. Generic signatures (either side)
// match on arity alone — instantiation details are not tracked.
func sigCompatible(a, b *types.Signature) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Params().Len() != b.Params().Len() || a.Results().Len() != b.Results().Len() {
		return false
	}
	if a.Variadic() != b.Variadic() {
		return false
	}
	if a.TypeParams().Len() > 0 || b.TypeParams().Len() > 0 ||
		a.RecvTypeParams().Len() > 0 || b.RecvTypeParams().Len() > 0 {
		return true
	}
	strip := func(s *types.Signature) *types.Signature {
		return types.NewSignatureType(nil, nil, nil, s.Params(), s.Results(), s.Variadic())
	}
	return types.Identical(strip(a), strip(b))
}

func (n *Node) addEdge(callee *Node, pos token.Pos, kind EdgeKind) {
	for _, e := range n.Edges {
		if e.Callee == callee && e.Pos == pos {
			return
		}
	}
	n.Edges = append(n.Edges, Edge{Callee: callee, Pos: pos, Kind: kind})
}

// sortNodes orders nodes deterministically for dumps and traversals.
func (g *Graph) sortNodes() {
	sort.Slice(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i], g.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Pos < b.Pos
	})
}

// Dump renders the graph in a stable, greppable text form, passing
// each file name through rel (the driver makes them module-relative,
// so dumps from two checkouts diff cleanly):
//
//	pkg.Func (address-taken)
//	  -> callee [kind] at file:line
func (g *Graph) Dump(fset *token.FileSet, rel func(string) string) string {
	g.sortNodes()
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%s", n.Name)
		if n.AddressTaken {
			b.WriteString(" (address-taken)")
		}
		b.WriteString("\n")
		for _, e := range n.Edges {
			pos := fset.Position(e.Pos)
			fmt.Fprintf(&b, "  -> %s [%s] at %s:%d\n", e.Callee.Name, e.Kind, rel(pos.Filename), pos.Line)
		}
	}
	return b.String()
}

// ReachChain finds the shortest call chain from entry to a node
// satisfying sink, returning the nodes along it (entry first) or nil.
// BFS over edges in insertion order keeps the result deterministic.
func (g *Graph) ReachChain(entry *Node, sink func(*Node) bool) []*Node {
	if sink(entry) {
		return []*Node{entry}
	}
	prev := map[*Node]*Node{entry: nil}
	queue := []*Node{entry}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			c := e.Callee
			if _, seen := prev[c]; seen {
				continue
			}
			prev[c] = n
			if sink(c) {
				var chain []*Node
				for at := c; at != nil; at = prev[at] {
					chain = append(chain, at)
				}
				for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
					chain[i], chain[j] = chain[j], chain[i]
				}
				return chain
			}
			queue = append(queue, c)
		}
	}
	return nil
}
