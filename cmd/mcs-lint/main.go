// Command mcs-lint runs the repo's custom static-analysis suite — the
// determinism and concurrency invariants described in internal/lint —
// over the module's packages and reports file:line diagnostics.
//
// Usage:
//
//	mcs-lint [-json] [-run detrand,poolonly] [-C dir] [patterns...]
//
// Patterns default to ./... and are resolved against the module root
// (the nearest parent directory holding go.mod). Exit status is 0 when
// clean, 1 when findings were reported, and 2 on usage or load errors
// (including type-check failures: an unbuildable tree cannot be
// analyzed trustworthily).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	run := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	dir := flag.String("C", "", "module directory to lint (default: module root above the working directory)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mcs-lint [flags] [patterns...]\n\nAnalyzers enforce the repo's determinism and concurrency invariants;\nsee internal/lint and docs/ARCHITECTURE.md §9. Suppress legitimate\nsites with '//mcs:allow <analyzer> <reason>'.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		var err error
		if analyzers, err = lint.ByName(*run); err != nil {
			fatal(err)
		}
	}

	root := *dir
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		if root, err = findModuleRoot(wd); err != nil {
			fatal(err)
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			broken = true
			fmt.Fprintf(os.Stderr, "mcs-lint: type error: %v\n", terr)
		}
	}
	if broken {
		os.Exit(2)
	}

	diags := lint.Run(pkgs, analyzers)
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mcs-lint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mcs-lint: no go.mod above %s (use -C)", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcs-lint:", err)
	os.Exit(2)
}
