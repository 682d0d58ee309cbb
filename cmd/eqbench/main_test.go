package main

import (
	"strings"
	"testing"

	"equalizer/internal/exp"
)

func TestRunDispatchesTables(t *testing.T) {
	h := exp.New(exp.Options{GridScale: 0.2})
	for _, name := range []string{"table1", "table2", "table3"} {
		out, err := run(h, name)
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
	if _, err := run(h, "fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSmallFigure(t *testing.T) {
	h := exp.New(exp.Options{GridScale: 0.2})
	out, err := run(h, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "lbm") {
		t.Fatalf("fig5 output malformed:\n%s", out)
	}
}
