package analysis

import (
	"go/token"
	"path/filepath"
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

// TestLoaderExpand checks ./... pattern expansion skips testdata.
func TestLoaderExpand(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("Expand(./...) returned no directories")
	}
	for _, d := range dirs {
		if filepath.Base(filepath.Dir(d)) == "testdata" || filepath.Base(d) == "testdata" {
			t.Errorf("Expand returned testdata directory %s", d)
		}
	}
}
