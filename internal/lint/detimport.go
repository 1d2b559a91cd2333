package lint

import "strconv"

// Detimport closes the deterministic layers under imports: a layer
// package's non-test files may import only other layers and the
// standard library, so no module package outside the set can run
// inside a layer's call. It also owns the process-environment sinks
// (os.Getenv, os.LookupEnv, os.Environ): each one in a layer is
// reported where it stands.
//
// Together with the per-site analyzers this rules out every chain
// from a layer to a nondeterministic sink. A chain that stays inside
// the layers ends at a wall-clock read, global math/rand draw, env
// read or unsorted map range in a layer package, which wallclock,
// detrand, detimport or maporder reports there; a chain that leaves
// the layers crosses an import this analyzer reports. The standard
// library's own sinks are the per-site analyzers' rows. Values a
// caller injects (an Observer, an obs.Clock) are the caller's
// responsibility and are not followed.
var Detimport = &Analyzer{
	Name: "detimport",
	Doc: "deterministic layers may import only other deterministic layers and the standard " +
		"library, and may not read the process environment (os.Getenv, LookupEnv, Environ)",
	Hard: inDetLayer,
	Run: func(p *Pass) {
		if !inDetLayer(p.Pkg.Path) {
			return
		}
		for _, f := range p.Pkg.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil || !inModule(path, p.Pkg.ModPath) || inDetLayer(path) {
					continue
				}
				p.Reportf(spec.Pos(), "deterministic layer %s imports %s, which is outside the deterministic layers — move what it needs into a layer or have the caller inject it", p.Pkg.Path, path)
			}
		}
		reportSinks(p, func(s sink) string {
			return s.desc + " in deterministic layer " + p.Pkg.Path + " — the process environment differs between runs; pass the setting in from the caller"
		})
	},
}
