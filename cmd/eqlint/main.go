// Command eqlint is the Equalizer determinism-and-invariant multichecker.
// It runs the custom analyzers from internal/analysis over the repository:
//
//	go run ./cmd/eqlint ./...
//
// Diagnostics print in compiler format (file:line:col: analyzer: message,
// with paths relative to the module root) and a non-zero exit status marks
// a dirty tree, so the command slots directly into CI. Individual findings
// are suppressed in source with `//eqlint:allow <analyzer> -- reason`
// directives; see the package documentation of internal/analysis for the
// full directive vocabulary. Directive hygiene is part of every run:
// misspelled verbs, allows naming unknown analyzers and allows that
// suppressed nothing are findings too.
//
// Patterns resolve through `go list`, so they mean what they mean to the go
// command. Each matched package is type-checked from source against the
// export data go list compiles for its imports, and the packages are
// analyzed one after another; output is path-sorted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"equalizer/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "all", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, "eqlint:", err)
		return 2
	}
	ranNames := map[string]bool{}
	for _, a := range analyzers {
		ranNames[a.Name] = true
	}
	known := analysis.AllNames()

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "eqlint:", err)
		return 2
	}

	// A package's directives are checked once every analyzer has had its
	// chance to consume a suppression.
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.PkgPath) {
				continue
			}
			diags, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				fmt.Fprintln(stderr, "eqlint:", err)
				return 2
			}
			all = append(all, diags...)
		}
		all = append(all, analysis.VerifyDirectives(pkg, known, ranNames)...)
	}
	analysis.SortDiagnostics(all)

	for _, d := range all {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintln(stdout, d)
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "eqlint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
