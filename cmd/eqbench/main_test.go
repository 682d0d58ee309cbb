package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equalizer/internal/exp"
)

func TestRunDispatchesTables(t *testing.T) {
	h := exp.New(exp.Options{GridScale: 0.2})
	for _, name := range []string{"table1", "table2", "table3"} {
		out, _, err := run(h, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "Table") {
			t.Errorf("%s output missing title: %q", name, out[:40])
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	h := exp.New(exp.Options{GridScale: 0.2})
	if _, _, err := run(h, "fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSmallFigure(t *testing.T) {
	h := exp.New(exp.Options{GridScale: 0.2})
	out, doc, err := run(h, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "lbm") {
		t.Fatalf("fig5 output malformed:\n%s", out)
	}
	if !strings.HasPrefix(doc, "<svg") || !strings.Contains(doc, "lbm") {
		t.Fatalf("fig5 SVG malformed:\n%s", doc)
	}
	if _, doc, err := run(h, "table1"); err != nil || doc != "" {
		t.Fatalf("table1 SVG = %q, %v; want empty", doc, err)
	}

	// The images are drawn from the memoised figure data: writing them
	// simulates nothing more.
	before := h.SchedulerStats().Simulated
	dir := t.TempDir()
	if err := emit(h, options{exp: "fig5,table1", svgDir: dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := h.SchedulerStats().Simulated; got != before {
		t.Errorf("-svg simulated %d more runs, want 0", got-before)
	}
	written, err := os.ReadFile(filepath.Join(dir, "fig5.svg"))
	if err != nil || string(written) != doc {
		t.Errorf("fig5.svg does not hold run's SVG (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.svg")); !os.IsNotExist(err) {
		t.Errorf("table1.svg written (stat err %v), want no file", err)
	}

	if err := emit(h, options{exp: "fig7", json: true, svgDir: dir}, io.Discard); err == nil {
		t.Error("-svg with -json accepted")
	}
}
