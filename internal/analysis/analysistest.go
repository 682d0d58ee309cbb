package analysis

import (
	"fmt"
	"regexp"
	"strings"
)

// All returns every registered analyzer in deterministic order; the eqlint
// multichecker runs exactly this set.
func All() []*Analyzer {
	return []*Analyzer{CycleAccounting, ErrStrict, NoDeterminism, ProbeHygiene}
}

// AllNames returns the set of valid analyzer names, for directive
// validation.
func AllNames() map[string]bool {
	names := make(map[string]bool, len(All()))
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// ByName resolves analyzer names (comma-separated) to analyzers.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// wantRe matches expected-diagnostic annotations in testdata sources:
//
//	code() // want "regexp"
//	code() // want "first" "second"
var wantRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` annotation.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// AnalysisTest loads the package in dir and runs the analyzer over it,
// comparing produced diagnostics against `// want "re"` annotations in the
// sources. It returns a list of mismatch descriptions; an empty list means
// the analyzer behaved exactly as annotated. The reporting t is abstracted
// so the helper itself stays testable.
func AnalysisTest(a *Analyzer, dir string) ([]string, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	diags, err := RunAnalyzer(a, pkg)
	if err != nil {
		return nil, err
	}
	expects, err := collectExpectations(pkg)
	if err != nil {
		return nil, err
	}

	var problems []string
	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
				continue
			}
			if e.pattern.MatchString(d.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic at %s:%d: %s",
				d.Pos.Filename, d.Pos.Line, d.Message))
		}
	}
	for _, e := range expects {
		if !e.matched {
			problems = append(problems, fmt.Sprintf("missing diagnostic at %s:%d matching %q",
				e.file, e.line, e.pattern))
		}
	}
	return problems, nil
}

// collectExpectations scans package comments for `// want` annotations.
func collectExpectations(pkg *Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %q: %w",
							pos.Filename, pos.Line, arg[1], err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out, nil
}
