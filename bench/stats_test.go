package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 50}, {18, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {162, 90}, {199, 90},
		{200, 95}, {243, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {200000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// Every workload's fixed tail percentile must be supported by the samples of
// one pass, because the reported latencies are those of the fastest pass.
func TestWorkloadTailsAreSupported(t *testing.T) {
	for _, w := range workloads {
		n := w.passOps()
		if w.kind == kindGrid {
			n = 1 // a grid pass is observable only as a whole
		}
		// svc_warm stops at p99 although a pass supports p99.9: the forty
		// samples beyond that are the host's scheduler, not the service.
		if best := min(tailPercentile(n), 99); w.tailPct != best {
			t.Errorf("%s reports p%g but a pass of %d samples supports p%g", w.name, w.tailPct, n, best)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if got := percentile(xs, 90); got != 10 {
		t.Errorf("p90 = %g, want 10", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18}
	q1, q3 := quartiles(xs) // python: [11.75, 14.5, 17.25]
	if q1 != 11.75 || q3 != 17.25 {
		t.Errorf("quartiles = %g, %g; python gives 11.75, 17.25", q1, q3)
	}
	if got, want := spread(xs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	q1, q3 = quartiles([]float64{1, 2}) // python: [0.75, 1.5, 2.25]
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g; python gives 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "service.roundtrip", DurUS: 70, Parent: -1},
		{Name: "service.serve", DurUS: 22, Parent: 0},
		{Name: "exp.RunCtx", DurUS: 0.5, Parent: 1},
		{Name: "gpu.RunKernel", DurUS: 100, Parent: -1},
		{Name: "runcache.Load", DurUS: 0.25, Parent: 2},
	}
	want := []float64{48, 21.5, 0.25, 100, 0.25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, got, want[i])
		}
	}
}
