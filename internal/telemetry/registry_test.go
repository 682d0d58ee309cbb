package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", Labels{"sm": "0"})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same (name, labels) returns the same cell.
	if r.Counter("requests_total", "requests", Labels{"sm": "0"}) != c {
		t.Fatal("series handle not stable")
	}
	g := r.Gauge("depth", "", nil)
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4}, nil)
	for _, v := range []float64{0.5, 1.5, 3, 8, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 15 {
		t.Fatalf("sum = %g", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: le=1 -> 1 (0.5), le=2 -> 3 (+1.5, +2), le=4 -> 4
	// (+3), +Inf -> 5 (+8).
	for _, want := range []string{
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="4"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 15`,
		`lat_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusDeterministicOrder(t *testing.T) {
	render := func() string {
		r := NewRegistry()
		// Register in scrambled order; export must sort by name then labels.
		r.Counter("zzz_total", "", nil).Set(1)
		r.Counter("aaa_total", "", Labels{"sm": "1"}).Set(2)
		r.Counter("aaa_total", "", Labels{"sm": "0"}).Set(3)
		r.Gauge("mmm", "mid", nil).Set(4)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if render() != first {
			t.Fatal("export order is not deterministic")
		}
	}
	aaa := strings.Index(first, "aaa_total{sm=\"0\"}")
	aaa1 := strings.Index(first, "aaa_total{sm=\"1\"}")
	zzz := strings.Index(first, "zzz_total")
	if !(aaa >= 0 && aaa < aaa1 && aaa1 < zzz) {
		t.Fatalf("series out of order:\n%s", first)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types must panic")
		}
	}()
	r.Gauge("m", "", nil)
}

// TestConcurrentUse exercises the registry under the race detector.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "", Labels{"w": "x"}).Inc()
				r.Gauge("g", "", nil).Set(float64(j))
				r.Histogram("h", "", []float64{10, 100}, nil).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "", Labels{"w": "x"}).Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h", "", []float64{10, 100}, nil).Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}

// TestHistogramSnapshotSubQuantile: snapshots copy the buckets, Sub yields
// the epoch delta, and Quantile interpolates within the containing bucket.
func TestHistogramSnapshotSubQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.01, 0.1, 1}, nil)
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05) // second bucket
	}
	s1 := h.Snapshot()
	if s1.Count != 100 || s1.Counts[0] != 90 || s1.Counts[1] != 10 {
		t.Fatalf("snapshot = %+v", s1)
	}
	// p95 rank=95 lands 5 samples into the second bucket (0.01..0.1):
	// 0.01 + (5/10)*0.09 = 0.055.
	if got := s1.Quantile(0.95); got < 0.054 || got > 0.056 {
		t.Errorf("p95 = %g, want ~0.055", got)
	}
	// p50 is inside the first bucket: 0 + (50/90)*0.01.
	if got := s1.Quantile(0.50); got < 0.0055 || got > 0.0057 {
		t.Errorf("p50 = %g, want ~0.00556", got)
	}

	// A second epoch of slower observations; the delta sees only them.
	for i := 0; i < 20; i++ {
		h.Observe(0.5)
	}
	d := h.Snapshot().Sub(s1)
	if d.Count != 20 || d.Counts[2] != 20 {
		t.Fatalf("delta = %+v", d)
	}
	if got := d.Quantile(0.95); got < 0.1 || got > 1 {
		t.Errorf("delta p95 = %g, want in (0.1, 1]", got)
	}

	// Empty delta and empty snapshot are well-defined.
	if got := d.Sub(d).Quantile(0.95); got != 0 {
		t.Errorf("empty delta quantile = %g, want 0", got)
	}
	var zero HistSnapshot
	if got := zero.Quantile(0.5); got != 0 {
		t.Errorf("zero snapshot quantile = %g, want 0", got)
	}
}

// TestHistogramSnapshotInfBucket: a quantile falling in the +Inf bucket
// reports the largest finite bound instead of infinity.
func TestHistogramSnapshotInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat2", "", []float64{0.01, 0.1}, nil)
	for i := 0; i < 10; i++ {
		h.Observe(5) // beyond every finite bound
	}
	if got := h.Snapshot().Quantile(0.99); got != 0.1 {
		t.Errorf("+Inf-bucket quantile = %g, want 0.1", got)
	}
}
