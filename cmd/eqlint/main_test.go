package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equalizer/internal/analysis"
)

// chdirRepoRoot moves the test into the module root so ./... patterns
// resolve the way a CI invocation would.
func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir("../..")
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	for _, name := range []string{"allocfree", "cycleaccounting", "errstrict", "nodeterminism", "probehygiene"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-analyzers", "nosuch", "./internal/clock"}, &out, &errb); code != 2 {
		t.Fatalf("run(-analyzers nosuch) = %d, want 2", code)
	}
}

// TestCleanPackage runs the full analyzer set over a small simulator
// package that must be clean; exit status 0 is part of the repo's
// determinism contract.
func TestCleanPackage(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	code := run([]string{"./internal/clock"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run(./internal/clock) = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestDirtyPackage points eqlint at the probehygiene testdata fixtures,
// which are deliberately dirty (and in scope, since probehygiene applies
// everywhere), and expects findings plus exit status 1.
func TestDirtyPackage(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	code := run([]string{"-analyzers", "probehygiene",
		"./internal/analysis/testdata/src/probehygiene"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run over dirty fixtures = %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "allocates") {
		t.Errorf("expected a probehygiene finding, got:\n%s", out.String())
	}
}

// TestJSONFormat checks that -format json output parses back through the
// report loader — the same schema the baseline file uses.
func TestJSONFormat(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	code := run([]string{"-format", "json", "-analyzers", "probehygiene",
		"./internal/analysis/testdata/src/probehygiene"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	rep, err := analysis.LoadReport(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("JSON output does not round-trip: %v\n%s", err, out.String())
	}
	if len(rep.Findings) == 0 {
		t.Fatal("JSON report has no findings for the dirty fixture")
	}
	for _, f := range rep.Findings {
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path %q is absolute, want module-relative", f.File)
		}
		if f.Analyzer != "probehygiene" {
			t.Errorf("finding analyzer %q, want probehygiene", f.Analyzer)
		}
	}
}

// TestSARIFFormat sanity-checks the SARIF rendering end to end.
func TestSARIFFormat(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	code := run([]string{"-format", "sarif", "-analyzers", "probehygiene",
		"./internal/analysis/testdata/src/probehygiene"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	for _, want := range []string{`"2.1.0"`, `"eqlint"`, `"probehygiene"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("SARIF output missing %s", want)
		}
	}
}

func TestUnknownFormat(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-format", "xml", "./internal/clock"}, &out, &errb); code != 2 {
		t.Fatalf("run(-format xml) = %d, want 2", code)
	}
}

// TestBaselineLifecycle drives the full loop: write a baseline for a dirty
// fixture, then re-run against it and come out clean; a stricter (smaller)
// and a grown baseline exercise the -compare-baselines guard both ways.
func TestBaselineLifecycle(t *testing.T) {
	chdirRepoRoot(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")

	var out, errb strings.Builder
	code := run([]string{"-baseline", base, "-write-baseline", "-analyzers", "probehygiene",
		"./internal/analysis/testdata/src/probehygiene"}, &out, &errb)
	if code != 0 {
		t.Fatalf("write-baseline = %d\nstderr:\n%s", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-baseline", base, "-analyzers", "probehygiene",
		"./internal/analysis/testdata/src/probehygiene"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run with own baseline = %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "suppressed by baseline") {
		t.Errorf("expected a suppression note on stderr, got:\n%s", errb.String())
	}

	// Shrinking passes the guard; growing fails it.
	f, err := os.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.LoadReport(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	writeReport := func(path string, rep *analysis.Report) {
		t.Helper()
		w, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := rep.WriteJSON(w); err != nil {
			t.Fatal(err)
		}
	}
	shrunk := filepath.Join(dir, "shrunk.json")
	writeReport(shrunk, &analysis.Report{Version: analysis.ReportVersion, Findings: rep.Findings[:len(rep.Findings)-1]})
	grown := filepath.Join(dir, "grown.json")
	writeReport(grown, &analysis.Report{Version: analysis.ReportVersion,
		Findings: append(append([]analysis.Finding{}, rep.Findings...),
			analysis.Finding{File: "zz.go", Analyzer: "allocfree", Message: "brand new debt"})})

	out.Reset()
	errb.Reset()
	if code := run([]string{"-compare-baselines", base, shrunk}, &out, &errb); code != 0 {
		t.Errorf("compare(base, shrunk) = %d, want 0\nstderr:\n%s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-compare-baselines", base, grown}, &out, &errb); code != 1 {
		t.Errorf("compare(base, grown) = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "zz.go") {
		t.Errorf("grown entry not named in compare output:\n%s", out.String())
	}
}

// TestStrictDirectives checks the driver wires -strict-directives through:
// the directives fixture carries an unknown verb, an unknown analyzer name,
// and an unused allow, so findings appear even before strict, and strict
// adds the unused-allow report.
func TestStrictDirectives(t *testing.T) {
	chdirRepoRoot(t)
	target := "./internal/analysis/testdata/src/directives"
	var out, errb strings.Builder
	if code := run([]string{"-baseline", "", target}, &out, &errb); code != 1 {
		t.Fatalf("lax run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lax := out.String()
	if !strings.Contains(lax, `unknown eqlint directive "frobnicate"`) ||
		!strings.Contains(lax, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("lax run missing directive-hygiene findings:\n%s", lax)
	}
	if strings.Contains(lax, "suppressed nothing") {
		t.Errorf("lax run reported unused allows:\n%s", lax)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", "", "-strict-directives", target}, &out, &errb); code != 1 {
		t.Fatalf("strict run = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "allow directive for errstrict suppressed nothing") {
		t.Errorf("strict run missing unused-allow finding:\n%s", out.String())
	}
}
