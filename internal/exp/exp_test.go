package exp

import (
	"strings"
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/kernels"
)

// smallHarness shrinks every grid to a quarter so smoke tests stay fast.
func smallHarness() *Harness {
	return New(Options{GridScale: 0.25})
}

func TestTablesRender(t *testing.T) {
	h := smallHarness()
	for name, s := range map[string]string{
		"table1": h.Table1(),
		"table2": h.Table2(),
		"table3": h.Table3(),
	} {
		if len(s) == 0 {
			t.Errorf("%s empty", name)
		}
	}
	if !strings.Contains(h.Table1(), "maintain") {
		t.Error("Table I missing action verbs")
	}
	if !strings.Contains(h.Table2(), "bfs-2") || !strings.Contains(h.Table2(), "kmn") {
		t.Error("Table II missing kernels")
	}
	if !strings.Contains(h.Table3(), "15 SMs") {
		t.Error("Table III missing architecture line")
	}
}

func TestSetupConstructors(t *testing.T) {
	if s := EqualizerSetup(core.PerformanceMode); s.Policy != "equalizer-perf" {
		t.Fatalf("perf setup = %+v", s)
	}
	if s := EqualizerSetup(core.EnergyMode); s.Policy != "equalizer-energy" {
		t.Fatalf("energy setup = %+v", s)
	}
	if s := StaticBlocks(3); s.Blocks != 3 || s.Policy != "blocks" {
		t.Fatalf("blocks setup = %+v", s)
	}
}

func TestRunMemoisation(t *testing.T) {
	h := smallHarness()
	k, _ := kernels.ByName("cutcp")
	t1 := h.MustRun(k, Baseline())
	t2 := h.MustRun(k, Baseline())
	if t1.TimePS != t2.TimePS {
		t.Fatal("memoised run differs")
	}
	if len(h.memo) != 1 {
		t.Fatalf("memo holds %d entries, want 1", len(h.memo))
	}
}

func TestStaticVFRunsAtRequestedPoint(t *testing.T) {
	h := smallHarness()
	k, _ := kernels.ByName("cutcp")
	base := h.MustRun(k, Baseline())
	hi := h.MustRun(k, StaticVF(config.VFHigh, config.VFNormal))
	if hi.Speedup(base) < 1.05 {
		t.Fatalf("SM-high speedup = %.3f on a compute kernel", hi.Speedup(base))
	}
	if hi.Residency.SM[config.VFHigh] == 0 {
		t.Fatal("no SM-high residency under StaticVF")
	}
}

func TestBestStaticBlocksFindsCacheOptimum(t *testing.T) {
	h := smallHarness()
	k, _ := kernels.ByName("kmn")
	best, bestT := h.BestStaticBlocks(k)
	if best >= k.MaxResidentBlocks(48) {
		t.Fatalf("best blocks = %d, want below maximum for a cache kernel", best)
	}
	base := h.MustRun(k, Baseline())
	if bestT.Speedup(base) < 1.2 {
		t.Fatalf("optimal blocks give only %.2fx", bestT.Speedup(base))
	}
}

func TestFigure4Shapes(t *testing.T) {
	h := smallHarness()
	rows, err := h.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 27 {
		t.Fatalf("figure 4 has %d rows, want 27", len(rows))
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Kernel] = r
		sum := r.Waiting + r.Issued + r.XALU + r.XMEM
		if sum < 0.98 || sum > 1.02 {
			t.Errorf("%s: distribution sums to %g", r.Kernel, sum)
		}
	}
	// Category signatures of the paper's Figure 4.
	if r := byName["cutcp"]; r.XALU <= r.XMEM {
		t.Errorf("compute kernel cutcp: XALU %.2f <= XMEM %.2f", r.XALU, r.XMEM)
	}
	if r := byName["lbm"]; r.XMEM <= r.XALU {
		t.Errorf("memory kernel lbm: XMEM %.2f <= XALU %.2f", r.XMEM, r.XALU)
	}
	if r := byName["kmn"]; r.XMEM <= r.XALU {
		t.Errorf("cache kernel kmn: XMEM %.2f <= XALU %.2f", r.XMEM, r.XALU)
	}
	out := RenderFigure4(rows)
	if !strings.Contains(out, "excess ALU") {
		t.Error("render missing header")
	}
}

func TestFigure5MemoryKernelsSaturateEarly(t *testing.T) {
	h := smallHarness()
	rows, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("figure 5 has %d kernels, want 5 memory kernels", len(rows))
	}
	for _, r := range rows {
		last := r.Speedup[len(r.Speedup)-1]
		if len(r.Speedup) < 2 {
			continue
		}
		// Performance at max blocks must be within 15% of the knee value —
		// i.e. saturated well before maximum concurrency.
		knee := r.Speedup[len(r.Speedup)/2]
		if last > knee*1.2 {
			t.Errorf("%s: perf still rising at max blocks (%.2f vs knee %.2f)", r.Kernel, last, knee)
		}
	}
	if out := RenderFigure5(rows); !strings.Contains(out, "lbm") {
		t.Error("render missing kernels")
	}
}

func TestFigure2aOptimalChangesMidRun(t *testing.T) {
	h := smallHarness()
	d, err := h.Figure2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks1) != 12 {
		t.Fatalf("bfs-2 ran %d invocations, want 12", len(d.Blocks1))
	}
	// Early invocations favour 3 blocks; mid invocations favour 1.
	if d.Blocks3[0] >= d.Blocks1[0] {
		t.Error("invocation 1: 3 blocks not faster than 1")
	}
	if d.Blocks1[8] >= d.Blocks3[8] {
		t.Error("invocation 9: 1 block not faster than 3")
	}
	if TotalPS(d.Opt) >= TotalPS(d.Blocks3) {
		t.Error("optimal not better than static 3 blocks")
	}
	if out := RenderFigure2a(d); !strings.Contains(out, "opt") {
		t.Error("render missing opt column")
	}
}

func TestFigure10Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	h := smallHarness()
	rows, err := h.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("figure 10 has %d kernels, want 7", len(rows))
	}
	for _, r := range rows {
		// At quarter-scale grids the adaptation ramp is a large fraction of
		// the run, so thresholds are loose; the full-scale ordering is
		// asserted by TestSpmvAdaptivityOrdering and the bench harness.
		if r.Kernel == "spmv" {
			if r.EqualizerPf < 0.9 {
				t.Errorf("spmv: equalizer speedup %.2f collapsed", r.EqualizerPf)
			}
			continue
		}
		if r.EqualizerPf <= 1.0 {
			t.Errorf("%s: equalizer speedup %.2f <= 1", r.Kernel, r.EqualizerPf)
		}
	}
}

func TestSpmvAdaptivityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	h := New(Options{}) // full scale
	k, err := kernels.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	base := h.MustRun(k, Baseline())
	dyn := h.MustRun(k, Setup{Policy: "dynCTA", SM: config.VFNormal, Mem: config.VFNormal})
	eq := h.MustRun(k, EqualizerSetup(core.PerformanceMode))
	if eq.Speedup(base) <= dyn.Speedup(base) {
		t.Fatalf("spmv: equalizer %.3f must beat dynCTA %.3f (Figure 11b adaptivity)",
			eq.Speedup(base), dyn.Speedup(base))
	}
}

func TestFigure11bTraces(t *testing.T) {
	h := smallHarness()
	d, err := h.Figure11b()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Equalizer) == 0 || len(d.DynCTA) == 0 {
		t.Fatal("missing traces")
	}
	if out := RenderFigure11b(d); !strings.Contains(out, "spmv") {
		t.Error("render missing title")
	}
}

func TestSummarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	h := smallHarness()
	s, err := h.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.PerfModeSpeedup <= 1.0 {
		t.Fatalf("performance-mode speedup %.3f <= 1", s.PerfModeSpeedup)
	}
	if s.EnergyModeSavings <= 0 {
		t.Fatalf("energy-mode savings %.3f <= 0", s.EnergyModeSavings)
	}
	if s.EnergyModePerf < 0.9 {
		t.Fatalf("energy mode lost %.1f%% performance", (1-s.EnergyModePerf)*100)
	}
	out := RenderSummary(s)
	if !strings.Contains(out, "1.22") {
		t.Error("summary missing paper reference values")
	}
}
