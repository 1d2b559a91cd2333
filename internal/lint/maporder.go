package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maporder flags the classic bit-identity killer: a range over a map
// whose body feeds an order-sensitive sink — appending to a slice,
// writing output, or feeding a hash/encoder — without a deterministic
// order. Go randomizes map iteration per run, so any such loop makes
// output depend on the iteration draw. The map's iterator forms
// (maps.Keys, maps.Values, maps.All) randomize identically and are
// treated the same as ranging over the map itself.
//
// The analyzer lets a loop off when the order is deterministic by
// construction: the range source is a sorting call — the idiomatic
// `for _, k := range slices.Sorted(maps.Keys(m))` never fires and
// needs no directive — or the enclosing function sorts after the loop
// (any call into sort or slices.Sort* lexically after the range ends:
// collect-then-sort). Sites where order provably cannot matter are
// annotated with //mcs:allow maporder and the proof as the reason.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map loops (including maps.Keys/Values/All iterators) that append, " +
		"write output, or feed a hash/encoder without an intervening sort — iterate " +
		"slices.Sorted(maps.Keys(m)) or sort the collected result",
	Run: func(p *Pass) {
		reportSinks(p, func(s sink) string {
			return "range over map feeds " + s.detail + " without a deterministic order — iterate slices.Sorted(maps.Keys(m)), sort the collected result, or prove order-independence with //mcs:allow maporder <reason>"
		})
	},
}

// rangesOverMap reports whether the range statement draws from
// randomized map iteration: the source is map-typed, or it is a direct
// maps.Keys/maps.Values/maps.All iterator over a map. A sorting
// wrapper (`slices.Sorted(maps.Keys(m))`) changes the source type to a
// slice and the callee to slices, so it never matches.
func rangesOverMap(pkg *Package, rs *ast.RangeStmt) bool {
	if tv, ok := pkg.Info.Types[rs.X]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return true
		}
	}
	call, ok := ast.Unparen(rs.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

// orderSensitivePrefixes start the call names whose results depend on call
// order: stream writers, printers, and hash/encoder feeds.
var orderSensitivePrefixes = []string{"Write", "Print", "Fprint", "Encode", "Sum"}

// orderSensitiveSink reports what (if anything) inside the range body
// observes iteration order: an append onto a slice, a write/print/
// encode/hash call, or a channel send.
func orderSensitiveSink(pkg *Package, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.CallExpr:
			switch callee := n.Fun.(type) {
			case *ast.Ident:
				if b, ok := pkg.Info.Uses[callee].(*types.Builtin); ok && b.Name() == "append" {
					sink = "append"
				}
			case *ast.SelectorExpr:
				name := callee.Sel.Name
				for _, prefix := range orderSensitivePrefixes {
					if strings.HasPrefix(name, prefix) {
						sink = "an order-sensitive call (" + name + ")"
						break
					}
				}
			}
		}
		return true
	})
	return sink
}

// sortedAfter reports whether the enclosing function establishes a
// deterministic order lexically after pos — a call into sort,
// slices.Sort*, or a local helper whose name says it sorts
// (sortProcIDs, SortKeys, ...): the collect-then-sort idiom.
func sortedAfter(pkg *Package, fn ast.Node, pos token.Pos) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		switch callee := call.Fun.(type) {
		case *ast.Ident:
			if strings.HasPrefix(callee.Name, "sort") || strings.HasPrefix(callee.Name, "Sort") {
				found = true
			}
		case *ast.SelectorExpr:
			if x, ok := callee.X.(*ast.Ident); ok {
				if pn, ok := pkg.Info.Uses[x].(*types.PkgName); ok {
					switch pn.Imported().Path() {
					case "sort":
						found = true
					case "slices":
						found = strings.HasPrefix(callee.Sel.Name, "Sort")
					}
					break
				}
			}
			if strings.HasPrefix(callee.Sel.Name, "sort") || strings.HasPrefix(callee.Sel.Name, "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}
