package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// directivePrefix introduces a suppression comment:
//
//	//mcs:allow <analyzer> <reason>
//
// placed on the offending line or on its own line directly above it
// (several own-line directives may stack). The reason is mandatory.
const directivePrefix = "//mcs:allow"

// directive is one parsed //mcs:allow comment.
type directive struct {
	pos      token.Position // of the comment itself
	target   int            // line the directive applies to (0 = dangling)
	analyzer string
	reason   string
	used     bool
}

// parseDirectives scans one package's comments for //mcs:allow
// directives and resolves the line each one targets: the comment's own
// line when code precedes it there (a trailing directive), otherwise
// the next line downward that holds code, skipping further comment
// lines — a blank line breaks the association and leaves the directive
// dangling.
func parseDirectives(pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		lines := strings.Split(string(pkg.Src[fname]), "\n")
		isCode := func(line int) bool { // 1-based
			if line < 1 || line > len(lines) {
				return false
			}
			text := lines[line-1]
			if i := strings.Index(text, "//"); i >= 0 {
				text = text[:i]
			}
			return strings.TrimSpace(text) != ""
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				// A nested // ends the directive, so ordinary trailing
				// commentary (and the fixtures' // want markers) never
				// leaks into the reason.
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				pos := pkg.Fset.Position(c.Slash)
				d := &directive{pos: pos}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				switch {
				case isCode(pos.Line):
					d.target = pos.Line
				default:
					for line := pos.Line + 1; line <= len(lines); line++ {
						if isCode(line) {
							d.target = line
							break
						}
						if strings.TrimSpace(lines[line-1]) == "" {
							break // blank line: directive dangles
						}
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// directiveFor returns the reasoned directive naming analyzer that
// targets the line at pos, or nil.
func directiveFor(dirs []*directive, analyzer string, pos token.Position) *directive {
	for _, d := range dirs {
		if d.analyzer == analyzer && d.reason != "" &&
			d.target == pos.Line && d.pos.Filename == pos.Filename {
			return d
		}
	}
	return nil
}

// applySuppression drops raw diagnostics matched by a well-formed
// directive, keeps (and flags) ones whose analyzer refuses suppression
// in this package, and appends directive-hygiene findings: missing
// reasons, unknown analyzer names, and directives that suppressed
// nothing. Hygiene findings carry the pseudo-analyzer name "directive"
// and are never themselves suppressible.
func applySuppression(pkg *Package, raw []Diagnostic, ran []*Analyzer) []Diagnostic {
	dirs := parseDirectives(pkg)
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	running := map[string]bool{}
	for _, a := range ran {
		running[a.Name] = true
	}

	var out []Diagnostic
	for _, diag := range raw {
		match := directiveFor(dirs, diag.Analyzer, diag.Pos)
		if match == nil {
			out = append(out, diag)
			continue
		}
		if a := byName[diag.Analyzer]; a != nil && a.Hard != nil && a.Hard(pkg.Path) {
			match.used = true // not honoured, but not dangling either
			diag.Message += " (//mcs:allow is not honoured in deterministic layers — fix the site instead)"
			out = append(out, diag)
			continue
		}
		match.used = true
	}

	for _, d := range dirs {
		hygiene := func(format string, args ...interface{}) {
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      d.pos,
				File:     d.pos.Filename,
				Line:     d.pos.Line,
				Column:   d.pos.Column,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		switch {
		case d.analyzer == "":
			hygiene("mcs:allow needs an analyzer name and a reason: //mcs:allow <analyzer> <reason>")
		case byName[d.analyzer] == nil:
			hygiene("mcs:allow names unknown analyzer %q (have %s)", d.analyzer, strings.Join(analyzerNames(All()), ", "))
		case d.reason == "":
			hygiene("mcs:allow %s needs a reason — annotate why the site is legitimate", d.analyzer)
		case d.target == 0 && running[d.analyzer]:
			hygiene("dangling mcs:allow %s: no code line follows the directive", d.analyzer)
		case !d.used && running[d.analyzer]:
			hygiene("unused mcs:allow %s: nothing to suppress on line %d — remove the stale directive", d.analyzer, d.target)
		}
	}
	return out
}
