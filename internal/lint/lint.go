package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //mcs:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Hard, when non-nil, reports whether findings in the given package
	// may NOT be suppressed with //mcs:allow — the deterministic layers
	// must be fixed, not annotated.
	Hard func(pkgPath string) bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// All returns the full analyzer suite in reporting order: the five
// per-site checks, the import boundary of the deterministic layers,
// and the function-local ctxflow and sharedcapture checks.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Maporder, Wallclock, Poolonly, Ctxloop, Detimport, Ctxflow, Sharedcapture}
}

// ByName resolves a comma-separated analyzer list against All,
// erroring on unknown names.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(analyzerNames(All()), ", "))
		}
	}
	return out, nil
}

func analyzerNames(as []*Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Column, d.Message, d.Analyzer)
}

// Pass carries one analyzer's run over one package. Diagnostics must
// be reported at positions inside Pkg so suppression directives
// resolve in the right file.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	sinks    *sinkTable
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the packages, applies //mcs:allow
// suppression (including directive hygiene findings), and returns the
// surviving diagnostics sorted by file, line, column, analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		table := &sinkTable{pkg: pkg}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, sinks: table, report: func(d Diagnostic) { raw = append(raw, d) }}
			a.Run(pass)
		}
		out = append(out, applySuppression(pkg, raw, analyzers)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// detLayers are the packages whose outputs must be bit-identical for
// any worker count and across replays: everything the differential
// harness, the delta-evaluator, and the service cache-hit contract
// replay, and the packages those import. detimport keeps the set
// closed under imports; wallclock, detrand and detimport findings here
// cannot be suppressed.
var detLayers = map[string]bool{
	"core": true, "rta": true, "tsched": true, "ttp": true,
	"can": true, "gateway": true, "opt": true, "sa": true,
	"hopa": true, "dse": true, "delta": true, "solve": true,
	"model": true, "engine": true, "sim": true, "obs": true,
}

// inDetLayer reports whether the import path names a deterministic
// layer (any path segment matching the layer set, so fixture packages
// under testdata exercise the same rule).
func inDetLayer(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		if detLayers[seg] {
			return true
		}
	}
	return false
}

// hasSegments reports whether path contains the given consecutive
// segments (e.g. "internal", "engine").
func hasSegments(pkgPath string, want ...string) bool {
	segs := strings.Split(pkgPath, "/")
	for i := 0; i+len(want) <= len(segs); i++ {
		match := true
		for j, w := range want {
			if segs[i+j] != w {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
