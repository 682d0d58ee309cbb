package analysis

import (
	"go/token"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDiagnosticString pins the compiler-style rendering editors parse.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "pkg/f.go", Line: 7, Column: 13},
		Analyzer: "errstrict",
		Message:  "boom",
	}
	if got, want := d.String(), "pkg/f.go:7:13: errstrict: boom"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}

// TestAnalyzers runs every analyzer over its testdata package and checks the
// produced diagnostics against the `// want` annotations, in both
// directions: no unexpected findings, no silent expectations.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
	}{
		{NoDeterminism, "nodeterminism"},
		{CycleAccounting, "cycleaccounting"},
		{ProbeHygiene, "probehygiene"},
		{ErrStrict, "errstrict"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			problems, err := AnalysisTest(tc.analyzer, dir)
			if err != nil {
				t.Fatalf("AnalysisTest(%s): %v", tc.analyzer.Name, err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestByName covers the analyzer-selection helper used by the eqlint
// -analyzers flag.
func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(all) = %d analyzers, err %v; want %d", len(all), err, len(All()))
	}
	one, err := ByName("nodeterminism")
	if err != nil || len(one) != 1 || one[0] != NoDeterminism {
		t.Fatalf("ByName(nodeterminism) = %v, err %v", one, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded, want error")
	}
}

// TestLoaderExpand checks that Load resolves ./... to the same package set
// as the go command, which leaves testdata trees out.
func TestLoaderExpand(t *testing.T) {
	_, pkgs, err := Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(out))
	var got []string
	for _, p := range pkgs {
		got = append(got, p.PkgPath)
		if strings.Contains(p.PkgPath, "testdata") {
			t.Errorf("Load(./...) returned testdata package %s", p.PkgPath)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Load(./...) packages = %v, go list ./... = %v", got, want)
	}
}
