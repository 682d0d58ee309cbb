package analysis

import (
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "/mod/b.go", Line: 9, Column: 2}, Analyzer: "allocfree", Message: "make allocates (x)"},
		{Pos: token.Position{Filename: "/mod/a.go", Line: 3, Column: 5}, Analyzer: "errstrict", Message: "write (y)"},
		{Pos: token.Position{Filename: "/mod/a.go", Line: 3, Column: 5}, Analyzer: "allocfree", Message: "make allocates (x)"},
	}
	return NewReport("/mod", diags)
}

// TestReportRoundTrip checks the single-schema property: the JSON that
// -format json emits parses back through the baseline loader unchanged.
func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	if r.Findings[0].File != "a.go" || r.Findings[0].Analyzer != "allocfree" {
		t.Fatalf("report not module-relative/sorted: %+v", r.Findings)
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the report:\nwrote %+v\nread  %+v", r, back)
	}
}

// TestLoadReportRejects checks schema guarding: unknown fields and wrong
// versions fail loudly instead of silently matching nothing.
func TestLoadReportRejects(t *testing.T) {
	if _, err := LoadReport(strings.NewReader(`{"version":1,"findings":[],"extra":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadReport(strings.NewReader(`{"version":99,"findings":[]}`)); err == nil {
		t.Error("future version accepted")
	}
}

// TestBaselineCountAware checks that a baseline entry absorbs only as many
// identical findings as it recorded: duplicating a flagged construct
// surfaces the copy, and line shifts do not invalidate the match.
func TestBaselineCountAware(t *testing.T) {
	b := NewBaseline(sampleReport())
	if b.Size() != 3 {
		t.Fatalf("Size = %d, want 3", b.Size())
	}
	shifted := []Finding{
		{File: "a.go", Line: 88, Col: 1, Analyzer: "allocfree", Message: "make allocates (x)"}, // same key, new line: absorbed
		{File: "a.go", Line: 89, Col: 1, Analyzer: "allocfree", Message: "make allocates (x)"}, // duplicate beyond the count: surfaces
		{File: "a.go", Line: 4, Col: 1, Analyzer: "allocfree", Message: "new allocates (z)"},   // new message: surfaces
	}
	out := b.Filter(shifted)
	if len(out) != 2 || out[0].Line != 89 || out[1].Message != "new allocates (z)" {
		t.Fatalf("Filter = %+v, want the duplicate and the new finding", out)
	}
}

// TestBaselineDiff checks the shrink-only guard's primitive.
func TestBaselineDiff(t *testing.T) {
	older := NewBaseline(sampleReport())
	if d := older.DiffAgainst(older); len(d) != 0 {
		t.Fatalf("self-diff = %v, want empty", d)
	}
	grown := sampleReport()
	grown.Findings = append(grown.Findings, Finding{File: "c.go", Analyzer: "allocfree", Message: "new debt"})
	d := NewBaseline(grown).DiffAgainst(older)
	if len(d) != 1 || !strings.Contains(d[0], "c.go") {
		t.Fatalf("grown diff = %v, want one c.go entry", d)
	}
	// Shrinking is fine.
	if d := older.DiffAgainst(NewBaseline(grown)); len(d) != 0 {
		t.Fatalf("shrink diff = %v, want empty", d)
	}
}

// TestWriteSARIF sanity-checks the SARIF rendering: schema header, one rule
// per analyzer, one result per finding.
func TestWriteSARIF(t *testing.T) {
	var buf strings.Builder
	if err := sampleReport().WriteSARIF(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"2.1.0"`, `"eqlint"`, `"errstrict"`, `"allocfree"`, `"uri": "a.go"`, `"startLine": 9`} {
		if !strings.Contains(s, want) {
			t.Errorf("SARIF output missing %s:\n%s", want, s)
		}
	}
}

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
