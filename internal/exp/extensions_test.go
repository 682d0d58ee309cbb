package exp

import (
	"reflect"
	"strings"
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/kernels"
)

func TestBoostComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	h := smallHarness()
	rows, err := h.BoostComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 27 {
		t.Fatalf("boost comparison has %d rows, want 27", len(rows))
	}
	byName := map[string]BoostRow{}
	for _, r := range rows {
		byName[r.Kernel] = r
	}
	// Boost helps compute kernels about as much as Equalizer...
	if r := byName["cutcp"]; r.Boost < 1.05 {
		t.Errorf("boost on cutcp = %.3f, want a real speedup", r.Boost)
	}
	// ...but cannot help cache-sensitive kernels, where Equalizer shines.
	if r := byName["kmn"]; r.Boost > 1.1 || r.Equalizer < 1.5 {
		t.Errorf("kmn: boost %.3f / equalizer %.3f, want boost flat and equalizer large",
			r.Boost, r.Equalizer)
	}
	// Boost spends energy on memory kernels without buying performance.
	if r := byName["lbm"]; r.Boost > 1.03 && r.BoostEnergy < 0.01 {
		t.Errorf("lbm: boost %.3f at %+.1f%% energy — boost should waste energy here",
			r.Boost, r.BoostEnergy*100)
	}
	out := RenderBoostComparison(rows)
	if !strings.Contains(out, "GMEAN") {
		t.Error("render missing aggregate row")
	}
}

func TestAblationEpochSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	h := New(Options{GridScale: 0.2})
	epoch := ablationSweeps()[0]
	if epoch.prefix != "epoch" {
		t.Fatalf("first ablation sweep is %q, want epoch", epoch.prefix)
	}
	pts, err := h.ablationPoints(core.PerformanceMode, []ablationSweep{epoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts[0]) != 5 {
		t.Fatalf("epoch sweep has %d points, want 5", len(pts[0]))
	}
	for _, p := range pts[0] {
		if p.Speedup <= 0.8 {
			t.Errorf("%s: speedup %.3f collapsed", p.Label, p.Speedup)
		}
	}
}

func TestAblationPointRunsCustomConfig(t *testing.T) {
	h := New(Options{GridScale: 0.2})
	epoch := ablationSweeps()[0]
	epoch.values = []int{2048}
	pts, err := h.ablationPoints(core.PerformanceMode, []ablationSweep{epoch})
	if err != nil {
		t.Fatal(err)
	}
	if p := pts[0][0]; p.Label != "epoch=2048" || p.Speedup <= 0 {
		t.Fatalf("bad ablation point %+v", p)
	}
}

// TestAblationSweepsRunThroughTheCache: the ablation sweeps are harness
// cells. Two sweeps simulate each distinct Equalizer configuration once per
// kernel, plus the kernels' baselines, and store them; a second harness on
// the same cache simulates nothing and reads the same points.
func TestAblationSweepsRunThroughTheCache(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweeps := ablationSweeps()[1:3] // hysteresis and sample interval
	distinct := map[config.Equalizer]bool{}
	for _, s := range sweeps {
		for _, v := range s.values {
			distinct[s.config(v)] = true
		}
	}
	n := len(ablationKernels())
	run := func() ([][]AblationPoint, SchedulerStats) {
		h := New(Options{GridScale: 0.05, Cache: cache})
		pts, err := h.ablationPoints(core.PerformanceMode, sweeps)
		if err != nil {
			t.Fatal(err)
		}
		return pts, h.SchedulerStats()
	}
	cold, st := run()
	if want := uint64(len(distinct)*n + n); st.Simulated != want || st.CacheStores != want {
		t.Errorf("cold sweeps: %+v, want %d simulated and stored", st, want)
	}
	warm, st := run()
	if st.Simulated != 0 {
		t.Errorf("warm sweeps simulated %d cells, want 0", st.Simulated)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm points %v differ from cold %v", warm, cold)
	}
}

func TestAblationKernelSetCoversCategories(t *testing.T) {
	seen := map[kernels.Category]bool{}
	for _, k := range ablationKernels() {
		seen[k.Category] = true
	}
	for _, c := range kernels.Categories() {
		if !seen[c] {
			t.Errorf("ablation set misses category %v", c)
		}
	}
}
