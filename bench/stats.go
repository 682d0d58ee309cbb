package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so spreads
// computed here match the ones the acceptance driver computes. It needs at
// least two values; with fewer it returns the single value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based scale, clamped to the data
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure every bound is compared with.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// tailLadder is the set of percentiles a tail may be reported at, each with
// the share of samples that lies beyond it.
var tailLadder = []struct{ pct, beyond float64 }{
	{50, 0.5}, {75, 0.25}, {90, 0.10}, {95, 0.05}, {99, 0.01}, {99.9, 0.001},
}

// tailPercentile returns the highest percentile of tailLadder that still has
// at least ten of n samples beyond it (the choosing-metrics rule). With too
// few samples for any tail it returns 50: the sample supports a median only.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, t := range tailLadder {
		if float64(n)*t.beyond >= 10 {
			best = t.pct
		}
	}
	return best
}

// span is one timed interval at a layer boundary. Parent indexes the span
// that caused it (-1 for a root); spans of one operation share Op.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
}

// selfTimes returns, for every span, its duration minus the durations of its
// direct children. Peeled boundaries are executed one after the other rather
// than nested in wall time, so the children's durations are subtracted whole
// instead of intersecting intervals.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.DurUS
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			self[s.Parent] -= s.DurUS
		}
	}
	return self
}
