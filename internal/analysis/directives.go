package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// DirectivesName is the pseudo-analyzer name under which directive-hygiene
// diagnostics are reported. It is not a selectable analyzer: the checks run
// as part of the driver, after the real analyzers, because "unused" is only
// knowable once everything that could use a directive has run.
const DirectivesName = "directives"

// knownDirectiveVerbs are the valid words after //eqlint: — anything else
// is a typo that silently does nothing.
var knownDirectiveVerbs = map[string]bool{
	"allow":       true,
	"cycle-owner": true,
	"emitpath":    true,
	"nilsafe":     true,
}

// VerifyDirectives checks a package's //eqlint: comments for hygiene
// problems and returns the findings:
//
//   - an //eqlint:<verb> comment whose verb is unknown (always reported);
//   - an //eqlint:allow directive naming an unknown analyzer (always
//     reported — a typo like "nondeterminism" for "nodeterminism" would
//     otherwise suppress nothing and linger);
//   - an allow directive none of whose named analyzers suppressed anything
//     (an allow orphaned by a deletion). Only analyzers that actually ran
//     on the package (ranNames) count: a directive for an analyzer the
//     driver skipped is not reported, so partial -analyzers runs stay quiet.
//
// known is the set of valid analyzer names; pass AllNames(). Diagnostics
// carry the DirectivesName pseudo-analyzer and are themselves suppressible
// with //eqlint:allow directives (matched under that name).
func VerifyDirectives(pkg *Package, known map[string]bool, ranNames map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(file string, line, col int, format string, args ...interface{}) {
		out = append(out, Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: DirectivesName,
			Message:  fmt.Sprintf(format, args...),
		})
	}

	// Unknown verbs: scan raw comments.
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//eqlint:")
				if !ok {
					continue
				}
				verb := rest
				if i := strings.IndexAny(verb, " \t"); i >= 0 {
					verb = verb[:i]
				}
				if verb == "" || knownDirectiveVerbs[verb] {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				report(pos.Filename, pos.Line, pos.Column,
					"unknown eqlint directive %q (known: allow, cycle-owner, emitpath, nilsafe)", verb)
			}
		}
	}

	for _, d := range pkg.allows().list {
		if !d.eqlint {
			continue // //nolint compatibility forms are not validated
		}
		for _, name := range d.names {
			if name == "*" {
				continue
			}
			if !known[name] {
				report(d.file, d.line, 1,
					"allow directive names unknown analyzer %q; it suppresses nothing", name)
				continue
			}
			if ranNames[name] && !d.used[name] {
				report(d.file, d.line, 1,
					"allow directive for %s suppressed nothing; remove it", name)
			}
		}
	}

	// Directive diagnostics are themselves suppressible.
	kept := out[:0]
	for _, d := range out {
		if pkg.allows().allows(d.Pos.Filename, d.Pos.Line, DirectivesName) {
			continue
		}
		kept = append(kept, d)
	}
	sortDiagnostics(kept)
	return kept
}
