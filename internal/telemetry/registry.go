package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to a metric series ({"sm": "3", "pipe": "alu"}).
type Labels map[string]string

// metricType distinguishes the three series shapes.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically increasing integer cell. Safe for concurrent
// use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the counter; used when snapshotting an already-accumulated
// simulator statistic into the registry.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float cell that can go up and down. Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative-on-export
// buckets. Safe for concurrent use.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; an implicit +Inf follows
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistSnapshot is a point-in-time copy of a histogram's buckets. Feedback
// controllers snapshot a cumulative histogram every epoch and difference
// consecutive snapshots (Sub) to get per-epoch distributions, then estimate
// tail quantiles (Quantile) from the delta.
type HistSnapshot struct {
	// Bounds are the upper bucket bounds, ascending; Counts has one extra
	// trailing cell for the implicit +Inf bucket. Bounds aliases the
	// histogram's immutable bounds slice — do not mutate.
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's current buckets. The per-bucket loads are
// not mutually atomic; under concurrent observation a snapshot may be off
// by the handful of samples that landed mid-copy, which is harmless for
// control and reporting uses.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Sub returns the per-bucket difference s - prev: the distribution of the
// observations that arrived between the two snapshots. A zero-value prev
// returns s unchanged. Buckets that would go negative (mismatched
// snapshots) clamp to zero.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Bounds: s.Bounds, Counts: make([]uint64, len(s.Counts)), Sum: s.Sum - prev.Sum}
	for i := range s.Counts {
		var p uint64
		if i < len(prev.Counts) {
			p = prev.Counts[i]
		}
		if s.Counts[i] > p {
			d.Counts[i] = s.Counts[i] - p
		}
		d.Count += d.Counts[i]
	}
	return d
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the snapshot by linear
// interpolation within the bucket that contains the target rank, the
// standard Prometheus histogram_quantile estimate. The +Inf bucket reports
// its lower bound (the largest finite bound). An empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// float64(…): no fused multiply-add (see power.Meter.Energy).
	rank := float64(q * float64(s.Count))
	cum := 0.0
	for i, n := range s.Counts {
		cum += float64(n)
		if cum < rank || n == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: no finite upper bound to interpolate to.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		below := cum - float64(n)
		frac := (rank - below) / float64(n)
		if frac < 0 {
			frac = 0
		}
		return lo + float64((hi-lo)*frac)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// series is one labeled instance of a metric family.
type series struct {
	labels Labels
	key    string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	bounds []float64 // histogram families only
	series map[string]*series
}

// Registry holds named metric families. Series handles returned by
// Counter/Gauge/Histogram are stable and may be cached by callers; the
// registry itself is safe for concurrent registration and export.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey serialises labels deterministically.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// lookup returns (creating if needed) the series for (name, labels),
// enforcing a consistent type per family.
func (r *Registry) lookup(name, help string, typ metricType, bounds []float64, labels Labels) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bounds: bounds,
			series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s",
			name, f.typ, typ))
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp, key: key}
		switch typ {
		case typeCounter:
			s.ctr = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = &Histogram{
				bounds: f.bounds,
				counts: make([]atomic.Uint64, len(f.bounds)+1),
			}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, typeCounter, nil, labels).ctr
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, typeGauge, nil, labels).gauge
}

// Histogram returns the histogram series for (name, labels) with the given
// ascending upper bucket bounds (an implicit +Inf bucket is appended). The
// bounds of the first registration win for the whole family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	return r.lookup(name, help, typeHistogram, sorted, labels).hist
}

// sortedFamilies snapshots families and series in name/label order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// promLabels renders {a="x",b="y"} with an optional extra le label, or ""
// when empty.
func promLabels(s *series, extra string) string {
	if s.key == "" && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	if s.key != "" {
		keys := make([]string, 0, len(s.labels))
		for k := range s.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%s=%q", k, s.labels[k])
		}
	}
	if extra != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the Prometheus way (integers without
// exponent, +Inf spelled out).
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus exports the registry in the Prometheus text exposition
// format, deterministically ordered by metric name and label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			switch f.typ {
			case typeCounter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s, ""), s.ctr.Value()); err != nil {
					return err
				}
			case typeGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(s, ""), formatFloat(s.gauge.Value())); err != nil {
					return err
				}
			case typeHistogram:
				cum := uint64(0)
				for i, bound := range s.hist.bounds {
					cum += s.hist.counts[i].Load()
					le := fmt.Sprintf("le=%q", formatFloat(bound))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s, le), cum); err != nil {
						return err
					}
				}
				cum += s.hist.counts[len(s.hist.bounds)].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s, `le="+Inf"`), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, promLabels(s, ""), formatFloat(s.hist.Sum())); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(s, ""), s.hist.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
