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
// Packages load and analyze across GOMAXPROCS workers, and output is
// path-sorted so runs are deterministic at any parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

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

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "eqlint:", err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "eqlint:", err)
		return 2
	}

	// Load packages and run the analyzers across GOMAXPROCS workers. A
	// package's directives are checked on the same worker once every
	// analyzer has had its chance to consume a suppression. Results land in
	// per-dir slots, so output order is independent of scheduling.
	type dirResult struct {
		diags []analysis.Diagnostic
		err   error
	}
	results := make([]dirResult, len(dirs))
	var wg sync.WaitGroup
	work := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(dirs) {
		workers = len(dirs)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i].diags, results[i].err = lintDir(loader, dirs[i], analyzers, known, ranNames)
			}
		}()
	}
	for i := range dirs {
		work <- i
	}
	close(work)
	wg.Wait()

	var all []analysis.Diagnostic
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(stderr, "eqlint: %s: %v\n", dirs[i], r.err)
			return 2
		}
		all = append(all, r.diags...)
	}
	analysis.SortDiagnostics(all)

	root := loader.ModuleRoot()
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

// lintDir loads the package in dir, runs every in-scope analyzer over it and
// then checks its directives.
func lintDir(loader *analysis.Loader, dir string, analyzers []*analysis.Analyzer, known, ranNames map[string]bool) ([]analysis.Diagnostic, error) {
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []analysis.Diagnostic
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkg.PkgPath) {
			continue
		}
		diags, err := analysis.RunAnalyzer(a, pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	return append(out, analysis.VerifyDirectives(pkg, known, ranNames)...), nil
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
