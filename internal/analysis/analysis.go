// Package analysis is the simulator's static-analysis toolkit: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus the domain analyzers that
// encode this repository's determinism and cycle-accounting invariants as
// machine-checked rules. The cmd/eqlint multichecker drives every analyzer
// over the module; `go test ./internal/analysis` exercises each one against
// testdata packages with expected-diagnostic annotations.
//
// The framework is stdlib-only on purpose: the build environment pins the
// toolchain and forbids fetching x/tools, and the subset needed here —
// typed ASTs, per-package passes, positional diagnostics, an analysistest
// harness — is small. Should the module ever vendor x/tools, the analyzers
// port mechanically: Run signatures and reporting semantics match.
//
// # Suppression directives
//
//	//eqlint:allow <analyzer>[,<analyzer>...] [-- reason]
//
// on (or alone on the line above) a flagged line suppresses those analyzers'
// diagnostics for that line. Suppressions are for sanctioned exceptions —
// e.g. the experiment harness's worker pool is allowed goroutines because
// its singleflight memo makes result aggregation order-independent — and
// should always carry a reason. The errstrict analyzer additionally honours
// the conventional //nolint:errcheck form. Allow directives naming an
// unknown analyzer are themselves flagged (a typo would otherwise suppress
// nothing, silently), and so are directives that suppressed nothing.
//
// Three more directives mark blessed code rather than suppressing findings:
//
//	//eqlint:cycle-owner   on a function: it may mutate cycle/epoch counters
//	//eqlint:emitpath      on a function: it is a telemetry emit path and
//	                       must not allocate
//	eqlint:nilsafe         in a type's doc comment: every pointer-receiver
//	                       method must begin with a receiver nil check
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. The subset of the x/tools contract used
// here: a name, documentation, and a Run function invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description shown by `eqlint -list`.
	Doc string
	// Scope restricts the analyzer to packages for which it returns true;
	// nil means every package. The driver applies Scope; tests bypass it.
	Scope func(pkgPath string) bool
	// Run analyzes one package and reports findings through the pass.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional compiler format,
// file:line:col: analyzer: message, so editors and CI problem matchers can
// parse it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Inspect walks every file of the pass in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// RunAnalyzer executes one analyzer over a loaded package and returns its
// diagnostics with suppression directives already applied, sorted by
// position.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
	}
	out := pass.diags[:0]
	for _, d := range pass.diags {
		if pkg.allows().allows(d.Pos.Filename, d.Pos.Line, a.Name) {
			continue
		}
		out = append(out, d)
	}
	sortDiagnostics(out)
	return out, nil
}

// SortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) — the canonical deterministic output order of the driver.
func SortDiagnostics(ds []Diagnostic) { sortDiagnostics(ds) }

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowKey addresses one suppressed (file, line) pair.
type allowKey struct {
	file string
	line int
}

// allowDirective is one parsed suppression comment. The used map records
// which of its analyzer names actually suppressed a finding, feeding the
// unused-directive report. Usage marking is not synchronized: the driver
// runs all analyzers for one package on one worker, so a directive is never
// marked concurrently.
type allowDirective struct {
	file string
	// line is the line of the comment itself; the directive also covers the
	// line immediately after its comment group (preceding placement).
	line int
	// names are the analyzer names the directive suppresses; "*" means all.
	names []string
	// eqlint is true for //eqlint:allow forms (whose names are validated)
	// and false for //nolint compatibility forms.
	eqlint bool
	used   map[string]bool
}

// allowSet indexes a package's suppression directives by the lines they
// cover.
type allowSet struct {
	byKey map[allowKey][]*allowDirective
	list  []*allowDirective
}

// allows reports whether a diagnostic from the named analyzer at file:line
// is suppressed, marking every directive that matches as used.
func (s *allowSet) allows(file string, line int, analyzer string) bool {
	ok := false
	for _, d := range s.byKey[allowKey{file, line}] {
		for _, n := range d.names {
			if n == analyzer || n == "*" {
				d.used[n] = true
				ok = true
			}
		}
	}
	return ok
}

// collectAllowedLines scans every comment of the package for suppression
// directives. A directive suppresses the line it sits on; a directive whose
// comment group occupies its own line(s) also suppresses the line after the
// group, so both trailing and preceding placements work.
func collectAllowedLines(pkg *Package) *allowSet {
	set := &allowSet{byKey: map[allowKey][]*allowDirective{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, eqlint := parseAllowDirective(c.Text)
				if names == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				end := pkg.Fset.Position(cg.End())
				d := &allowDirective{
					file:   pos.Filename,
					line:   pos.Line,
					names:  names,
					eqlint: eqlint,
					used:   map[string]bool{},
				}
				set.list = append(set.list, d)
				set.byKey[allowKey{pos.Filename, pos.Line}] = append(set.byKey[allowKey{pos.Filename, pos.Line}], d)
				if end.Line+1 != pos.Line {
					set.byKey[allowKey{pos.Filename, end.Line + 1}] = append(set.byKey[allowKey{pos.Filename, end.Line + 1}], d)
				}
			}
		}
	}
	return set
}

// parseAllowDirective extracts analyzer names from a suppression comment, or
// nil when the comment is not one; eqlint reports whether the comment is the
// native //eqlint:allow form. Recognised forms:
//
//	//eqlint:allow name1,name2 -- reason
//	//nolint:errcheck           (errcheck compatibility, maps to errstrict)
func parseAllowDirective(text string) (names []string, eqlint bool) {
	switch {
	case strings.HasPrefix(text, "//eqlint:allow"):
		rest := strings.TrimPrefix(text, "//eqlint:allow")
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			// Another directive sharing the prefix (hypothetical
			// //eqlint:allowfoo), not an allow.
			return nil, false
		}
		if reason := strings.Index(rest, "--"); reason >= 0 {
			rest = rest[:reason]
		}
		fields := strings.FieldsFunc(rest, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		if len(fields) == 0 {
			return []string{"*"}, true
		}
		return fields, true
	case strings.HasPrefix(text, "//nolint:"):
		rest := strings.TrimPrefix(text, "//nolint:")
		if i := strings.IndexAny(rest, " \t/"); i >= 0 {
			rest = rest[:i]
		}
		for _, n := range strings.Split(rest, ",") {
			if n == "errcheck" {
				return []string{"errstrict"}, false
			}
		}
	}
	return nil, false
}

// funcHasDirective reports whether the function declaration carries the
// given //eqlint:<directive> marker in its doc comment.
func funcHasDirective(decl *ast.FuncDecl, directive string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//eqlint:"+directive); ok {
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// forEachFunc invokes fn for every function declaration with a body.
func forEachFunc(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
