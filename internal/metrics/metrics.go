// Package metrics provides the small statistical helpers the experiment
// harness uses to aggregate per-kernel results the way the paper does:
// geometric means for speedups, arithmetic means for energy ratios, and
// fixed-point table formatting.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// GeomeanErr returns the geometric mean of xs, or zero for an empty slice.
// A non-positive sample — one broken kernel run in a sweep — is an error,
// since a speedup or energy ratio of zero would silently poison the
// aggregate.
func GeomeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("metrics: non-positive sample %g at index %d in geomean", x, i)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Mean returns the arithmetic mean, or zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// RatioErr returns a/b. A zero denominator means a run produced no result;
// it is an error rather than a panic, so one empty result among many runs
// does not abort the rest.
func RatioErr(a, b float64) (float64, error) {
	if b == 0 {
		return 0, fmt.Errorf("metrics: zero denominator for ratio %g/0", a)
	}
	return a / b, nil
}

// Pct formats a fraction as a signed percentage ("+12.3%", "-4.0%").
func Pct(f float64) string {
	return fmt.Sprintf("%+.1f%%", f*100)
}

// Bar renders a fraction in [0,1] as a fixed-width ASCII bar, the terminal
// stand-in for the paper's stacked-bar figures. Out-of-range values clamp.
func Bar(frac float64, width int) string {
	if width <= 0 {
		return ""
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// float64(…): no fused multiply-add (see power.Meter.Energy).
	filled := int(float64(frac*float64(width)) + 0.5)
	return strings.Repeat("#", filled) + strings.Repeat(".", width-filled)
}

// Table is a minimal fixed-width text table writer for harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.header) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted values: strings pass through, float64s
// format with three decimals, ints in base 10.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns. Rows longer than the
// header get their own columns rather than collapsing into the last one.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for len(widths) < len(row) {
			widths = append(widths, 0)
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
