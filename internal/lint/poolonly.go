package lint

import "go/ast"

// Poolonly forbids bare go statements outside internal/engine: all
// fan-out rides the engine's bounded batch primitives
// (engine.Map/EvaluateAll) so parallelism stays deterministic
// (ordered reductions) and bounded (no goroutine-per-item blowups under
// service load). internal/engine is structurally exempt — it implements
// those primitives. Everything else, including the service's long-lived
// job-queue runners, annotates its legitimate detached goroutines with
// //mcs:allow poolonly and a reason, so every escape from the batch
// primitives is visible in review rather than silently grandfathered.
var Poolonly = &Analyzer{
	Name: "poolonly",
	Doc: "forbids bare go statements outside internal/engine; fan-out must ride engine.Map/EvaluateAll, " +
		"legitimate detached goroutines carry //mcs:allow poolonly",
	Run: func(p *Pass) {
		if hasSegments(p.Pkg.Path, "internal", "engine") {
			return
		}
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(), "bare go statement — fan-out rides engine.Map/EvaluateAll; a legitimate detached goroutine needs //mcs:allow poolonly <reason>")
				}
				return true
			})
		}
	},
}
