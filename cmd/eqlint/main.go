// Command eqlint is the Equalizer determinism-and-invariant multichecker.
// It runs the custom analyzers from internal/analysis over the repository:
//
//	go run ./cmd/eqlint ./...
//
// Diagnostics print in compiler format (file:line:col: analyzer: message)
// and a non-zero exit status marks a dirty tree, so the command slots
// directly into CI. Machine-readable output is available with
// -format json|sarif. Individual findings are suppressed in source with
// `//eqlint:allow <analyzer> -- reason` directives; see the package
// documentation of internal/analysis for the full directive vocabulary.
//
// Packages load and analyze across GOMAXPROCS workers; the module
// analyzer (allocfree) then runs once over the whole load, and
// output is path-sorted so runs are deterministic at any parallelism.
//
// When a .eqlint-baseline.json file exists at the module root (or -baseline
// names one), findings recorded there are filtered out: analyzers are
// strict on new code while the legacy debt burns down explicitly.
// -write-baseline regenerates the file from the current findings, and
// -compare-baselines OLD NEW exits non-zero if NEW contains entries absent
// from OLD — the CI guard that the baseline only ever shrinks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
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
	format := fs.String("format", "text", "output format: text, json, or sarif")
	baselinePath := fs.String("baseline", "auto", "baseline file filtering known findings; 'auto' uses <module>/"+analysis.BaselineFile+" when present, '' disables")
	writeBaseline := fs.Bool("write-baseline", false, "write current findings to the baseline file and exit 0")
	compareBaselines := fs.Bool("compare-baselines", false, "compare two baseline/report files (OLD NEW); exit 1 if NEW has entries absent from OLD")
	strictDirectives := fs.Bool("strict-directives", false, "report allow directives that suppressed nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	if *compareBaselines {
		return compareBaselineFiles(fs.Args(), stdout, stderr)
	}

	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "eqlint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, "eqlint:", err)
		return 2
	}
	var pkgAnalyzers, modAnalyzers []*analysis.Analyzer
	ranNames := map[string]bool{}
	for _, a := range analyzers {
		ranNames[a.Name] = true
		if a.RunModule != nil {
			modAnalyzers = append(modAnalyzers, a)
		} else {
			pkgAnalyzers = append(pkgAnalyzers, a)
		}
	}

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

	// Phase 1: load packages and run the per-package analyzers across
	// GOMAXPROCS workers. Results land in per-dir slots, so output order is
	// independent of scheduling.
	type dirResult struct {
		pkg   *analysis.Package
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
				r := &results[i]
				r.pkg, r.err = loader.LoadDir(dirs[i])
				if r.err != nil {
					continue
				}
				for _, a := range pkgAnalyzers {
					if a.Scope != nil && !a.Scope(r.pkg.PkgPath) {
						continue
					}
					diags, err := analysis.RunAnalyzer(a, r.pkg)
					if err != nil {
						r.err = err
						break
					}
					r.diags = append(r.diags, diags...)
				}
			}
		}()
	}
	for i := range dirs {
		work <- i
	}
	close(work)
	wg.Wait()

	var all []analysis.Diagnostic
	var pkgs []*analysis.Package
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(stderr, "eqlint: %s: %v\n", dirs[i], r.err)
			return 2
		}
		all = append(all, r.diags...)
		pkgs = append(pkgs, r.pkg)
	}

	// Phase 2: module analyzers see every package at once, sharing one call
	// graph and facts store.
	if len(modAnalyzers) > 0 {
		mod := analysis.NewModule(pkgs)
		for _, a := range modAnalyzers {
			diags, err := analysis.RunModuleAnalyzer(a, mod)
			if err != nil {
				fmt.Fprintf(stderr, "eqlint: %v\n", err)
				return 2
			}
			all = append(all, diags...)
		}
	}

	// Phase 3: directive hygiene — after every analyzer has had its chance
	// to consume a suppression.
	known := analysis.AllNames()
	for _, pkg := range pkgs {
		all = append(all, analysis.VerifyDirectives(pkg, known, ranNames, *strictDirectives)...)
	}

	analysis.SortDiagnostics(all)
	report := analysis.NewReport(loader.ModuleRoot(), all)

	if *writeBaseline {
		path := filepath.Join(loader.ModuleRoot(), analysis.BaselineFile)
		if *baselinePath != "auto" && *baselinePath != "" {
			path = *baselinePath
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(stderr, "eqlint:", err)
			return 2
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "eqlint:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "eqlint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "eqlint: wrote %d finding(s) to %s\n", len(report.Findings), path)
		return 0
	}

	// Baseline filtering.
	findings := report.Findings
	if path, ok := resolveBaseline(*baselinePath, loader.ModuleRoot()); ok {
		base, err := loadBaseline(path)
		if err != nil {
			fmt.Fprintln(stderr, "eqlint:", err)
			return 2
		}
		before := len(findings)
		findings = base.Filter(findings)
		if n := before - len(findings); n > 0 {
			fmt.Fprintf(stderr, "eqlint: %d finding(s) suppressed by baseline %s\n", n, path)
		}
	}
	out := &analysis.Report{Version: analysis.ReportVersion, Findings: findings}

	switch *format {
	case "json":
		if err := out.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "eqlint:", err)
			return 2
		}
	case "sarif":
		if err := out.WriteSARIF(stdout); err != nil {
			fmt.Fprintln(stderr, "eqlint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "eqlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// resolveBaseline decides which baseline file, if any, applies.
func resolveBaseline(flagVal, moduleRoot string) (string, bool) {
	switch flagVal {
	case "":
		return "", false
	case "auto":
		path := filepath.Join(moduleRoot, analysis.BaselineFile)
		if _, err := os.Stat(path); err == nil {
			return path, true
		}
		return "", false
	default:
		return flagVal, true
	}
}

func loadBaseline(path string) (*analysis.Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := analysis.LoadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return analysis.NewBaseline(rep), nil
}

// compareBaselineFiles implements -compare-baselines OLD NEW: exit 1 when
// NEW contains findings absent from OLD (the baseline grew).
func compareBaselineFiles(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "eqlint: -compare-baselines needs exactly two files: OLD NEW")
		return 2
	}
	oldB, err := loadBaseline(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "eqlint:", err)
		return 2
	}
	newB, err := loadBaseline(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "eqlint:", err)
		return 2
	}
	grew := newB.DiffAgainst(oldB)
	for _, g := range grew {
		fmt.Fprintln(stdout, g)
	}
	if len(grew) > 0 {
		fmt.Fprintf(stderr, "eqlint: baseline grew by %d entr(y/ies) — baselines may only shrink; fix the new findings instead\n", len(grew))
		return 1
	}
	fmt.Fprintf(stderr, "eqlint: baseline ok (%d -> %d finding(s))\n", oldB.Size(), newB.Size())
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
