package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2, 8}, 4},
		{[]float64{1, 1, 1}, 1},
	} {
		g, err := GeomeanErr(tc.xs)
		if err != nil || math.Abs(g-tc.want) > 1e-12 {
			t.Fatalf("GeomeanErr(%v) = %g, %v; want %g", tc.xs, g, err, tc.want)
		}
	}
	if _, err := GeomeanErr([]float64{1, 0}); err == nil {
		t.Fatal("GeomeanErr accepted a zero sample")
	}
}

func TestMean(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean(nil) = %g", m)
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %g, want 2", m)
	}
}

func TestRatio(t *testing.T) {
	if r, err := RatioErr(3, 2); err != nil || r != 1.5 {
		t.Fatalf("RatioErr(3, 2) = %g, %v", r, err)
	}
	if _, err := RatioErr(1, 0); err == nil {
		t.Fatal("zero denominator accepted")
	}
}

func TestPct(t *testing.T) {
	if s := Pct(0.123); s != "+12.3%" {
		t.Fatalf("Pct = %q", s)
	}
	if s := Pct(-0.04); s != "-4.0%" {
		t.Fatalf("Pct = %q", s)
	}
}

func TestBar(t *testing.T) {
	if b := Bar(0.5, 10); b != "#####....." {
		t.Fatalf("Bar(0.5,10) = %q", b)
	}
	if b := Bar(0, 4); b != "...." {
		t.Fatalf("Bar(0,4) = %q", b)
	}
	if b := Bar(1, 4); b != "####" {
		t.Fatalf("Bar(1,4) = %q", b)
	}
	if b := Bar(-1, 4); b != "...." {
		t.Fatalf("negative clamp: %q", b)
	}
	if b := Bar(2, 4); b != "####" {
		t.Fatalf("overflow clamp: %q", b)
	}
	if b := Bar(0.5, 0); b != "" {
		t.Fatalf("zero width: %q", b)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("kernel", "speedup")
	tb.AddRowf("kmn", 2.84)
	tb.AddRow("lbm") // short row padded
	out := tb.String()
	if !strings.Contains(out, "kernel") || !strings.Contains(out, "2.840") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4 (header, sep, 2 rows)", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}

func TestTableMixedTypes(t *testing.T) {
	tb := NewTable("a", "b", "c", "d")
	tb.AddRowf(1, int64(2), 3.5, uint(7))
	out := tb.String()
	for _, want := range []string{"1", "2", "3.500", "7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

// Property: geomean lies between min and max of the samples.
func TestQuickGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g, err := GeomeanErr(xs)
		return err == nil && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
