// Benchmarks for mcs-lint itself: the suite runs on every precommit
// and CI build, so its wall time is a budget, not an afterthought.
// BenchmarkLintAll is the end-to-end number (load + type-check + all
// analyzers over the whole module); BenchmarkLintAnalyze isolates the
// analyzers so a regression points at the guilty phase: type-checking
// dominates, and the analyzers share one pass over it.
//
// Run with:
//
//	go test -bench Lint -benchtime 1x ./internal/lint/
package lint

import (
	"path/filepath"
	"testing"
)

func benchRoot(b *testing.B) string {
	b.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		b.Fatal(err)
	}
	return root
}

func benchLoad(b *testing.B) []*Package {
	b.Helper()
	loader, err := NewLoader(benchRoot(b))
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		b.Fatal(err)
	}
	return pkgs
}

// BenchmarkLintAll is the full mcs-lint wall time: fresh loader,
// parse + type-check of every module package, all analyzers.
func BenchmarkLintAll(b *testing.B) {
	var pkgs []*Package
	for i := 0; i < b.N; i++ {
		pkgs = benchLoad(b)
		if diags := Run(pkgs, All()); len(diags) != 0 {
			b.Fatalf("self-application not clean: %s", diags[0])
		}
	}
	b.ReportMetric(float64(len(pkgs)), "packages")
}

// BenchmarkLintAnalyze isolates the analyzers on a preloaded module:
// the type-check is shared, so this is what adding an analyzer costs.
func BenchmarkLintAnalyze(b *testing.B) {
	pkgs := benchLoad(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs, All()); len(diags) != 0 {
			b.Fatalf("self-application not clean: %s", diags[0])
		}
	}
}
