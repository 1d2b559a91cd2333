package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// moduleRoot returns the repo root (two levels above this package).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// The fixture tests share one Loader: every package (and the stdlib
// packages the source importer pulls in) is parsed and type-checked
// once for the whole test binary instead of once per test.
var (
	fixtureLoaderOnce sync.Once
	fixtureLoader     *Loader
	fixtureLoaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	root := moduleRoot(t)
	fixtureLoaderOnce.Do(func() {
		fixtureLoader, fixtureLoaderErr = NewLoader(root)
	})
	if fixtureLoaderErr != nil {
		t.Fatal(fixtureLoaderErr)
	}
	return fixtureLoader
}

// want is one expectation parsed from a fixture's "// want" comments.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRe matches the expectation marker; each following quoted or
// backquoted string is a regexp one diagnostic on that line must match.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for fname, src := range pkg.Src {
		for i, line := range strings.Split(string(src), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			matches := wantRe.FindAllString(rest, -1)
			if len(matches) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted regexp)", fname, i+1)
			}
			for _, m := range matches {
				pattern := m
				if strings.HasPrefix(m, `"`) {
					var err error
					if pattern, err = strconv.Unquote(m); err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", fname, i+1, m, err)
					}
				} else {
					pattern = strings.Trim(m, "`")
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", fname, i+1, pattern, err)
				}
				wants = append(wants, &want{file: fname, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runFixture loads the fixture packages, runs the analyzers over them,
// and checks the diagnostics against the fixtures' // want
// expectations — every want must be hit, every diagnostic wanted.
func runFixture(t *testing.T, analyzers []*Analyzer, fixtures ...string) {
	t.Helper()
	loader := sharedLoader(t)
	patterns := make([]string, len(fixtures))
	for i, fixture := range fixtures {
		patterns[i] = "./internal/lint/testdata/src/" + fixture
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(fixtures) {
		t.Fatalf("fixtures %v: got %d packages, want %d", fixtures, len(pkgs), len(fixtures))
	}
	var wants []*want
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", pkg.Path, terr)
		}
		wants = append(wants, parseWants(t, pkg)...)
	}
	for _, d := range Run(pkgs, analyzers) {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q: no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestDetrandFixture(t *testing.T)  { runFixture(t, []*Analyzer{Detrand}, "detrand/a") }
func TestMaporderFixture(t *testing.T) { runFixture(t, []*Analyzer{Maporder}, "maporder/a") }
func TestWallclockFixture(t *testing.T) {
	runFixture(t, []*Analyzer{Wallclock}, "wallclock/a")
}
func TestPoolonlyFixture(t *testing.T) { runFixture(t, []*Analyzer{Poolonly}, "poolonly/a") }
func TestCtxloopFixture(t *testing.T)  { runFixture(t, []*Analyzer{Ctxloop}, "ctxloop/a") }
func TestCtxflowFixture(t *testing.T)  { runFixture(t, []*Analyzer{Ctxflow}, "ctxflow/a") }

// A chain that stays inside the deterministic layers ends at a sink
// the whole suite reports in the package that holds it: helpers,
// function values and map ranges several frames below an entry point,
// and environment reads at package level or in an exported function.
func TestDetimportFixture(t *testing.T) { runFixture(t, All(), "detimport/core") }

// A chain that leaves the layers crosses an import detimport reports,
// even when the sink beyond it carries a local //mcs:allow.
func TestDetimportCrossPackage(t *testing.T) {
	runFixture(t, All(), "detimport/solve", "detimport/util")
}

// Values a caller injects into a layer are the caller's
// responsibility: a soft package's observer reading an allowed clock
// gives no finding, as a method value or a function literal.
func TestDetimportInjectedObserver(t *testing.T) {
	runFixture(t, All(), "detimport/client")
}

func TestSharedcaptureFixture(t *testing.T) {
	runFixture(t, []*Analyzer{Sharedcapture}, "sharedcapture/a", "sharedcapture/internal/engine")
}

// The deterministic layers refuse suppression for the bit-identity
// analyzers: the annotated fixture sites still fire.
func TestDetrandHardInDetLayer(t *testing.T) {
	runFixture(t, []*Analyzer{Detrand}, "detrand/core")
}
func TestWallclockHardInDetLayer(t *testing.T) {
	runFixture(t, []*Analyzer{Wallclock}, "wallclock/solve")
}

// internal/engine (the batch primitives themselves) is structurally exempt from
// poolonly: the fixture's bare go statement produces nothing.
func TestPoolonlyEngineExempt(t *testing.T) {
	runFixture(t, []*Analyzer{Poolonly}, "poolonly/internal/engine")
}

// Directive hygiene: missing reasons, unknown analyzers, unused and
// dangling directives are findings in their own right.
func TestDirectiveHygiene(t *testing.T) {
	runFixture(t, []*Analyzer{Poolonly}, "directive/a")
}

func TestByName(t *testing.T) {
	as, err := ByName("detrand, poolonly")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "detrand" || as[1].Name != "poolonly" {
		t.Fatalf("ByName: got %v", analyzerNames(as))
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch): expected error")
	}
}

// TestSuiteNamesUnique guards the directive matcher: every analyzer
// name (and the reserved hygiene name) must be distinct.
func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{"directive": true}
	for _, a := range All() {
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func ExampleDiagnostic() {
	d := Diagnostic{Analyzer: "poolonly", File: "x.go", Line: 3, Column: 2, Message: "bare go statement"}
	fmt.Println(d)
	// Output: x.go:3:2: bare go statement [poolonly]
}
