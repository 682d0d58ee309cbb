// Package svg is a minimal scalable-vector-graphics writer used to render
// the paper's figures as images (eqbench -svg). It supports exactly what the
// harness needs — grouped bar charts and line charts with axes and legends —
// using only the standard library.
// float64(…) around a product added to a coordinate blocks a fused
// multiply-add, so the committed figures draw the same bytes on every host.
package svg

import (
	"fmt"
	"math"
	"strings"
)

// Palette is the default series colour cycle.
var Palette = []string{
	"#4878d0", "#ee854a", "#6acc64", "#d65f5f",
	"#956cb4", "#8c613c", "#dc7ec0", "#797979",
}

// Canvas accumulates SVG elements.
type Canvas struct {
	w, h int
	b    strings.Builder
}

// NewCanvas creates a canvas of the given pixel size with a white background.
func NewCanvas(w, h int) *Canvas {
	c := &Canvas{w: w, h: h}
	fmt.Fprintf(&c.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&c.b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	return c
}

// Rect draws a filled rectangle.
func (c *Canvas) Rect(x, y, w, h float64, fill string) {
	fmt.Fprintf(&c.b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n", x, y, w, h, fill)
}

// Line draws a line segment.
func (c *Canvas) Line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(&c.b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

// Polyline draws a connected path through the points.
func (c *Canvas) Polyline(xs, ys []float64, stroke string, width float64) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return
	}
	var pts []string
	for i := range xs {
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", xs[i], ys[i]))
	}
	fmt.Fprintf(&c.b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%.1f"/>`+"\n",
		strings.Join(pts, " "), stroke, width)
}

// Text draws a label; anchor is "start", "middle" or "end".
func (c *Canvas) Text(x, y float64, s, anchor string, size int) {
	fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="%d" text-anchor="%s">%s</text>`+"\n",
		x, y, size, anchor, escape(s))
}

// TextRotated draws a label rotated 90° counter-clockwise around its anchor.
func (c *Canvas) TextRotated(x, y float64, s string, size int) {
	fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="%d" text-anchor="end" transform="rotate(-45 %.1f %.1f)">%s</text>`+"\n",
		x, y, size, x, y, escape(s))
}

// String finalises and returns the SVG document.
func (c *Canvas) String() string {
	return c.b.String() + "</svg>\n"
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// Series is one named data series of a chart.
type Series struct {
	Name   string
	Values []float64
}

// BarChart renders grouped vertical bars: one group per label, one bar per
// series within each group.
func BarChart(title string, labels []string, series []Series, w, h int) string {
	c := NewCanvas(w, h)
	const (
		padL, padR, padT, padB = 60, 20, 40, 90
	)
	plotW := float64(w - padL - padR)
	plotH := float64(h - padT - padB)

	maxV := 0.0
	for _, s := range series {
		for _, v := range s.Values {
			maxV = math.Max(maxV, v)
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	maxV *= 1.08

	c.Text(float64(w)/2, 22, title, "middle", 15)
	// Axes and gridlines.
	c.Line(padL, padT, padL, padT+plotH, "#333", 1)
	c.Line(padL, padT+plotH, padL+plotW, padT+plotH, "#333", 1)
	for i := 0; i <= 4; i++ {
		v := maxV * float64(i) / 4
		y := padT + plotH - float64(plotH*float64(i)/4)
		c.Line(padL, y, padL+plotW, y, "#ddd", 0.5)
		c.Text(padL-6, y+4, fmt.Sprintf("%.2f", v), "end", 10)
	}

	groups := len(labels)
	if groups == 0 {
		return c.String()
	}
	groupW := plotW / float64(groups)
	barW := groupW * 0.8 / float64(len(series))
	for gi, label := range labels {
		gx := padL + float64(groupW*float64(gi)) + float64(groupW*0.1)
		for si, s := range series {
			if gi >= len(s.Values) {
				continue
			}
			v := s.Values[gi]
			bh := plotH * v / maxV
			c.Rect(gx+float64(barW*float64(si)), padT+plotH-bh, barW, bh, Palette[si%len(Palette)])
		}
		c.TextRotated(gx+float64(groupW*0.4), padT+plotH+14, label, 10)
	}

	// Legend.
	lx := float64(padL)
	for si, s := range series {
		c.Rect(lx, float64(h)-18, 10, 10, Palette[si%len(Palette)])
		c.Text(lx+14, float64(h)-9, s.Name, "start", 11)
		lx += 14 + float64(8*float64(len(s.Name))) + 18
	}
	return c.String()
}

// LineChart renders one line per series over a shared integer x axis.
func LineChart(title, xLabel string, series []Series, w, h int) string {
	c := NewCanvas(w, h)
	const (
		padL, padR, padT, padB = 60, 20, 40, 60
	)
	plotW := float64(w - padL - padR)
	plotH := float64(h - padT - padB)

	maxV, maxN := 0.0, 0
	for _, s := range series {
		for _, v := range s.Values {
			maxV = math.Max(maxV, v)
		}
		if len(s.Values) > maxN {
			maxN = len(s.Values)
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	maxV *= 1.08
	if maxN < 2 {
		maxN = 2
	}

	c.Text(float64(w)/2, 22, title, "middle", 15)
	c.Line(padL, padT, padL, padT+plotH, "#333", 1)
	c.Line(padL, padT+plotH, padL+plotW, padT+plotH, "#333", 1)
	for i := 0; i <= 4; i++ {
		v := maxV * float64(i) / 4
		y := padT + plotH - float64(plotH*float64(i)/4)
		c.Line(padL, y, padL+plotW, y, "#ddd", 0.5)
		c.Text(padL-6, y+4, fmt.Sprintf("%.1f", v), "end", 10)
	}
	c.Text(padL+float64(plotW/2), float64(h)-10, xLabel, "middle", 11)

	for si, s := range series {
		xs := make([]float64, len(s.Values))
		ys := make([]float64, len(s.Values))
		for i, v := range s.Values {
			xs[i] = padL + plotW*float64(i)/float64(maxN-1)
			ys[i] = padT + plotH - plotH*v/maxV
		}
		c.Polyline(xs, ys, Palette[si%len(Palette)], 1.6)
	}

	lx := float64(padL)
	for si, s := range series {
		c.Line(lx, float64(h)-28, lx+16, float64(h)-28, Palette[si%len(Palette)], 2)
		c.Text(lx+20, float64(h)-24, s.Name, "start", 11)
		lx += 24 + float64(8*float64(len(s.Name))) + 14
	}
	return c.String()
}
