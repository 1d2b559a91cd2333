package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/opt").
	Path string
	// ModPath is the path of the module the package belongs to.
	ModPath string
	// Dir is the absolute directory the files were read from.
	Dir  string
	Fset *token.FileSet
	// Files are the package's non-test files, in file-name order.
	Files []*ast.File
	// Src maps absolute file names to their raw bytes (used by the
	// suppression scanner to classify directive placement).
	Src map[string][]byte
	// Types and Info carry the go/types results. Info lookups are
	// best-effort: analyzers must tolerate missing entries when
	// TypeErrors is non-empty.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check problems (empty on a healthy tree).
	TypeErrors []error
}

// Loader loads module-local packages with the standard library's
// go/parser + go/types only. Module-local import paths resolve against
// the module root; everything else (the standard library) goes through
// the source importer, so no compiled export data or external tooling
// is needed.
type Loader struct {
	// Root is the module root (the directory holding go.mod).
	Root string
	// ModPath is the module path from go.mod.
	ModPath string

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a Loader for the module rooted at root, reading the
// module path from its go.mod.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: not a module root: %w", err)
	}
	modpath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modpath = strings.TrimSpace(rest)
			break
		}
	}
	if modpath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Root:    root,
		ModPath: modpath,
		fset:    fset,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Load resolves the patterns (relative to the module root: "./...",
// "./dir/...", or a single directory) and returns the matched packages
// in import-path order. Pattern walks skip testdata, hidden, and
// underscore-prefixed directories; explicitly named directories are
// loaded even under testdata, which is how the fixture tests load
// packages full of deliberate violations.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			sub, err := l.walk(l.Root)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.Root, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			sub, err := l.walk(base)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
		default:
			add(filepath.Join(l.Root, filepath.FromSlash(pat)))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// walk returns every directory under base containing at least one
// non-test .go file, skipping testdata, hidden, and "_"-prefixed
// directories.
func (l *Loader) walk(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goFiles lists the non-test .go files of dir in name order.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// pathFor maps an absolute package directory to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir loads (or returns the memoized) package in dir. A directory
// with no non-test .go files yields (nil, nil).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	pkg := &Package{
		Path:    path,
		ModPath: l.ModPath,
		Dir:     dir,
		Fset:    l.fset,
		Src:     map[string][]byte{},
	}
	for _, n := range names {
		fn := filepath.Join(dir, n)
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, fn, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", fn, err)
		}
		pkg.Src[fn] = src
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error on the first problem but keeps going via
	// the Error hook; the (possibly incomplete) package is still usable
	// for syntax-level checks.
	tpkg, _ := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// inModule reports whether the import path names a package of the
// module modPath.
func inModule(path, modPath string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}

// loaderImporter adapts the Loader as the types.Importer its own
// type-checking runs use: module-local paths re-enter loadDir,
// everything else falls through to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if inModule(path, l.ModPath) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
