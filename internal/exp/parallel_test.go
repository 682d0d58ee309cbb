package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
)

// detScale keeps the determinism suite fast: the full Figure 7+8 grid at a
// tenth of every kernel's grid size.
const detScale = 0.1

func renderFig78(t *testing.T, h *Harness) string {
	t.Helper()
	f7, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	f8, err := h.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	return RenderFigure7(f7) + RenderFigure8(f8)
}

// TestParallelDeterminismAndCache is the tentpole's acceptance test: figure
// renderings must be byte-identical across worker counts and between cold-
// and warm-cache runs, and a warm rerun must not simulate at all.
func TestParallelDeterminismAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 7+8 grid")
	}
	if raceDetectorEnabled {
		t.Skip("full grid is too slow under the race detector; TestPrefetchRaceSmoke covers the concurrency")
	}
	// Reference: sequential, no disk cache.
	ref := renderFig78(t, New(Options{GridScale: detScale, Parallelism: 1}))

	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Cold cache at parallelism 4.
	h4 := New(Options{GridScale: detScale, Parallelism: 4, Cache: cache})
	if got := renderFig78(t, h4); got != ref {
		t.Error("parallelism-4 cold-cache rendering differs from sequential reference")
	}
	cold := h4.SchedulerStats()
	if cold.Simulated == 0 {
		t.Error("cold run reported zero simulations")
	}
	if cold.CacheStores != cold.Simulated {
		t.Errorf("cold run stored %d of %d simulated results", cold.CacheStores, cold.Simulated)
	}
	if cold.MemoHits == 0 {
		t.Error("shared baselines should memo-hit within a run")
	}

	// Warm cache at parallelism 16: byte-identical with zero simulations.
	h16 := New(Options{GridScale: detScale, Parallelism: 16, Cache: cache})
	if got := renderFig78(t, h16); got != ref {
		t.Error("parallelism-16 warm-cache rendering differs from sequential reference")
	}
	warm := h16.SchedulerStats()
	if warm.Simulated != 0 {
		t.Errorf("warm run simulated %d times, want 0", warm.Simulated)
	}
	if warm.CacheHits == 0 {
		t.Error("warm run recorded no cache hits")
	}
}

// TestPrefetchRaceSmoke exercises the concurrent scheduler paths — worker
// pool, singleflight memo, disk cache stores and hits — on a grid small
// enough to run under the race detector, where the full-grid determinism
// tests skip themselves.
func TestPrefetchRaceSmoke(t *testing.T) {
	k, err := kernels.ByName("cutcp")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	grid := []RunRequest{
		{Kernel: k, Setup: Baseline()},
		{Kernel: k, Setup: StaticVF(config.VFHigh, config.VFNormal)},
		{Kernel: k, Setup: StaticVF(config.VFNormal, config.VFHigh)},
		{Kernel: k, Setup: StaticBlocks(1)},
		{Kernel: k, Setup: StaticBlocks(2)},
	}
	h := New(Options{GridScale: 0.05, Parallelism: 8, Cache: cache})
	// Duplicates in the grid must dedupe through the memo, not run twice.
	h.Prefetch(append(append([]RunRequest{}, grid...), grid...))
	want := make([]Totals, len(grid))
	for i, r := range grid {
		want[i] = mustRun(t, h, r.Kernel, r.Setup)
	}
	st := h.SchedulerStats()
	if st.Simulated != uint64(len(grid)) {
		t.Errorf("Simulated = %d, want %d (one per unique request)", st.Simulated, len(grid))
	}
	if st.MemoHits < uint64(len(grid)) {
		t.Errorf("MemoHits = %d, want >= %d (duplicates + readback)", st.MemoHits, len(grid))
	}
	if st.CacheStores != st.Simulated {
		t.Errorf("stored %d of %d simulated results", st.CacheStores, st.Simulated)
	}

	// A fresh harness over the same cache must serve everything from disk,
	// byte-for-byte equal.
	h2 := New(Options{GridScale: 0.05, Parallelism: 8, Cache: cache})
	h2.Prefetch(grid)
	for i, r := range grid {
		if got := mustRun(t, h2, r.Kernel, r.Setup); got.TimePS != want[i].TimePS || got.EnergyJ != want[i].EnergyJ {
			t.Errorf("warm result %d differs from cold", i)
		}
	}
	if st := h2.SchedulerStats(); st.Simulated != 0 || st.CacheHits != uint64(len(grid)) {
		t.Errorf("warm harness: %+v, want 0 simulated / %d cache hits", st, len(grid))
	}
}

// TestCacheKeySchemaVersion: bumping the schema version must change every
// key, invalidating all persisted entries.
func TestCacheKeySchemaVersion(t *testing.T) {
	g, p := config.Default(), power.Default()
	s := Baseline()
	k1 := cacheKeyFor(1, g, p, 1.0, "cutcp", s)
	k2 := cacheKeyFor(2, g, p, 1.0, "cutcp", s)
	if k1 == k2 {
		t.Error("schema version bump did not change the cache key")
	}
	if k1 != cacheKeyFor(1, g, p, 1.0, "cutcp", s) {
		t.Error("cache key not stable across calls")
	}
	if k1 == cacheKeyFor(1, g, p, 0.5, "cutcp", s) {
		t.Error("grid scale not part of the cache key")
	}
	if k1 == cacheKeyFor(1, g, p, 1.0, "lbm", s) {
		t.Error("kernel name not part of the cache key")
	}
	if k1 == cacheKeyFor(1, g, p, 1.0, "cutcp", StaticVF(config.VFHigh, config.VFNormal)) {
		t.Error("setup not part of the cache key")
	}
	short := config.DefaultEqualizer()
	short.EpochCycles = 2048
	perf := EqualizerSetup(core.PerformanceMode)
	if cacheKeyFor(1, g, p, 1.0, "cutcp", perf) == cacheKeyFor(1, g, p, 1.0, "cutcp", perf.WithEqualizer(short)) {
		t.Error("Equalizer parameters not part of the cache key")
	}
	for _, set := range []string{"disablefrequency=1", "disableblocks=1"} {
		gpuCfg, eq := config.Default(), config.DefaultEqualizer()
		if err := config.ApplyOverrides(&gpuCfg, &eq, set); err != nil {
			t.Fatal(err)
		}
		if cacheKeyFor(1, g, p, 1.0, "cutcp", perf) == cacheKeyFor(1, g, p, 1.0, "cutcp", perf.WithEqualizer(eq)) {
			t.Errorf("-set %s not part of the Equalizer cell's key", set)
		}
	}
	// eqsim hands every parsed setup the Equalizer parameters of its -set
	// overrides; a baseline cell must key the same whatever they are.
	for _, set := range []string{"", "epochcycles=2048", "hysteresis=1,sampleinterval=64,memsaturationwarps=4",
		"disablefrequency=1", "disableblocks=1"} {
		gpuCfg, eq := config.Default(), config.DefaultEqualizer()
		if err := config.ApplyOverrides(&gpuCfg, &eq, set); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseSetup("baseline", "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if cacheKeyFor(1, g, p, 1.0, "cutcp", parsed.WithEqualizer(eq)) != k1 {
			t.Errorf("-set %q changed the baseline cell's key", set)
		}
	}
}

// schemaScale keeps TestCacheSchemaPinned's 81-cell grid to a few seconds.
const schemaScale = 0.05

// TestCacheSchemaPinned ties cacheSchemaVersion to the model: it hashes the
// stored cache entry (the Totals JSON plus each invocation's census and, for
// Equalizer, SM 0's trace) of every kernel under baseline and both Equalizer
// modes and compares the digest with cacheSchemaDigest. A change that moves
// any stored result fails here until it bumps cacheSchemaVersion, so no disk
// cache serves an older model's numbers, and re-pins the digest.
func TestCacheSchemaPinned(t *testing.T) {
	h := New(Options{GridScale: schemaScale})
	setups := []Setup{Baseline(), EqualizerSetup(core.PerformanceMode), EqualizerSetup(core.EnergyMode)}
	var grid []RunRequest
	for _, k := range kernels.All() {
		for _, s := range setups {
			grid = append(grid, RunRequest{k, s})
		}
	}
	h.Prefetch(grid)
	sum := sha256.New()
	for _, r := range grid {
		tot, err := h.Run(r.Kernel, r.Setup)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(entryOf(tot))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "%s %s %s\n", r.Kernel.Name, r.Setup.Policy, b)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != cacheSchemaDigest {
		t.Errorf("results at cacheSchemaVersion %d hash to %s, pinned %s: bump cacheSchemaVersion and re-pin cacheSchemaDigest",
			cacheSchemaVersion, got, cacheSchemaDigest)
	}
}

// TestCorruptCacheEntryFallsBackToSimulate: a mangled entry must be counted,
// removed, and replaced by a fresh simulation — never surfaced as a failure.
func TestCorruptCacheEntryFallsBackToSimulate(t *testing.T) {
	k, err := kernels.ByName("bfs-2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := New(Options{GridScale: 0.1, Parallelism: 2, Cache: cache})
	want := mustRun(t, h, k, Baseline())

	// Corrupt the stored entry, then rerun with a fresh harness.
	if err := os.WriteFile(cache.Path(h.cacheKey(k.Name, Baseline())), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	h2 := New(Options{GridScale: 0.1, Parallelism: 2, Cache: cache})
	got, err := h2.Run(k, Baseline())
	if err != nil {
		t.Fatalf("corrupt entry surfaced as failure: %v", err)
	}
	if got.TimePS != want.TimePS || got.EnergyJ != want.EnergyJ {
		t.Error("re-simulated result differs from original")
	}
	st := h2.SchedulerStats()
	if st.CacheErrors == 0 {
		t.Error("corrupt entry not counted")
	}
	if st.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1 (fall back to simulate)", st.Simulated)
	}
	// The healed entry serves the next harness from disk.
	h3 := New(Options{GridScale: 0.1, Parallelism: 2, Cache: cache})
	mustRun(t, h3, k, Baseline())
	if st := h3.SchedulerStats(); st.CacheHits != 1 || st.Simulated != 0 {
		t.Errorf("healed entry not served from disk: %+v", st)
	}
}

// TestUnwritableCacheServesUncached replaces an open cache's directory with
// a regular file, so every Load and Store fails whatever the process's
// permissions. The run must still succeed with the uncached result, count
// the failures, store nothing, and serve a repeat from the memo.
func TestUnwritableCacheServesUncached(t *testing.T) {
	k, err := kernels.ByName("mri_g-2")
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, New(Options{GridScale: 0.1, Parallelism: 2}), k, Baseline())

	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	h := New(Options{GridScale: 0.1, Parallelism: 2, Cache: cache})
	got, src, err := h.RunCtx(context.Background(), k, Baseline())
	if err != nil {
		t.Fatalf("unwritable cache surfaced as failure: %v", err)
	}
	if src != SourceSim || !reflect.DeepEqual(got, want) {
		t.Errorf("RunCtx = %+v from %v, want %+v from %v", got, src, want, SourceSim)
	}
	if st := h.SchedulerStats(); st.CacheErrors < 1 || st.CacheStores != 0 {
		t.Errorf("CacheErrors = %d, CacheStores = %d; want >= 1 and 0", st.CacheErrors, st.CacheStores)
	}
	if _, src, err := h.RunCtx(context.Background(), k, Baseline()); err != nil || src != SourceMemo {
		t.Errorf("repeat run: source %v, err %v; want a memo hit", src, err)
	}
	if st := h.SchedulerStats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d after the repeat, want 1", st.Simulated)
	}
}

// TestMultiInvocationAggregatesWeighted: Totals.L1Hit/DRAMUtil must be the
// SM-cycle-weighted mean over invocations, not the last invocation's value
// (the old last-wins bug misreported multi-invocation kernels like bfs-2).
func TestMultiInvocationAggregatesWeighted(t *testing.T) {
	k, err := kernels.ByName("bfs-2")
	if err != nil {
		t.Fatal(err)
	}
	h := New(Options{GridScale: 0.1, Parallelism: 1})
	got := mustRun(t, h, k, Baseline())

	// Recompute the expected aggregates from a fresh machine.
	kk := h.scaled(k)
	m, err := gpu.New(h.gpuCfg, h.pwrCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetLevelsImmediate(config.VFNormal, config.VFNormal)
	var wL1, wDRAM, lastL1 float64
	var cycles int64
	for inv := 0; inv < kk.Invocations; inv++ {
		res, err := m.RunKernel(kk, inv)
		if err != nil {
			t.Fatal(err)
		}
		wL1 += res.L1HitRate * float64(res.SMCycles)
		wDRAM += res.DRAMUtil * float64(res.SMCycles)
		cycles += res.SMCycles
		lastL1 = res.L1HitRate
	}
	wantL1, wantDRAM := wL1/float64(cycles), wDRAM/float64(cycles)
	if math.Abs(got.L1Hit-wantL1) > 1e-9 {
		t.Errorf("L1Hit = %v, want SM-cycle-weighted %v", got.L1Hit, wantL1)
	}
	if math.Abs(got.DRAMUtil-wantDRAM) > 1e-9 {
		t.Errorf("DRAMUtil = %v, want SM-cycle-weighted %v", got.DRAMUtil, wantDRAM)
	}
	// bfs-2's invocations differ, so the weighted mean must not collapse to
	// the old last-invocation value.
	if math.Abs(wantL1-lastL1) > 1e-9 && math.Abs(got.L1Hit-lastL1) < 1e-12 {
		t.Error("L1Hit still reports the last invocation's value")
	}
}

// TestPrefetchReturnsGridTotals: Prefetch returns one Totals per grid cell
// in grid order, duplicates included, equal to Run on a fresh harness; its
// error is the first failing cell's in grid order, whichever failed first;
// and the figures built on it return a failing simulator's error instead of
// panicking.
func TestPrefetchReturnsGridTotals(t *testing.T) {
	k, err := kernels.ByName("cutcp")
	if err != nil {
		t.Fatal(err)
	}
	grid := []RunRequest{
		{Kernel: k, Setup: Baseline()},
		{Kernel: k, Setup: StaticVF(config.VFHigh, config.VFNormal)},
		{Kernel: k, Setup: Baseline()},
		{Kernel: k, Setup: StaticBlocks(1)},
		{Kernel: k, Setup: StaticVF(config.VFHigh, config.VFNormal)},
	}
	got, err := New(Options{GridScale: 0.05, Parallelism: 4}).Prefetch(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(grid) {
		t.Fatalf("Prefetch returned %d totals for %d cells", len(got), len(grid))
	}
	fresh := New(Options{GridScale: 0.05, Parallelism: 4})
	for i, r := range grid {
		if want := mustRun(t, fresh, r.Kernel, r.Setup); !reflect.DeepEqual(got[i], want) {
			t.Errorf("cell %d (%s): Prefetch totals differ from Run", i, r.Setup.Policy)
		}
	}

	bad := []RunRequest{
		{Kernel: k, Setup: Baseline()},
		{Kernel: k, Setup: StaticBlocks(1)},
		{Kernel: k, Setup: Setup{Policy: "bogus-a"}},
		{Kernel: k, Setup: Baseline()},
		{Kernel: k, Setup: Setup{Policy: "bogus-b"}},
	}
	tot, err := New(Options{GridScale: 0.05, Parallelism: 4}).Prefetch(bad)
	if err == nil || !strings.Contains(err.Error(), "bogus-a") || strings.Contains(err.Error(), "bogus-b") {
		t.Errorf("Prefetch error = %v, want cell 2's (bogus-a)", err)
	}
	if tot != nil {
		t.Errorf("Prefetch returned %d totals with its error, want none", len(tot))
	}

	h := New(Options{GridScale: 0.05, Parallelism: 4})
	h.simFault = func() error { return fmt.Errorf("injected simulator fault") }
	if _, err := h.Figure1(); err == nil || !strings.Contains(err.Error(), "injected simulator fault") {
		t.Errorf("Figure1 error = %v, want the injected fault", err)
	}
	if _, _, err := h.BestStaticBlocks(k); err == nil || !strings.Contains(err.Error(), "injected simulator fault") {
		t.Errorf("BestStaticBlocks error = %v, want the injected fault", err)
	}
}

// TestBestStaticBlocksCutoffDeterministic: the monotone-tail short-circuit
// must pick the same block count at every parallelism.
func TestBestStaticBlocksCutoffDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full block sweep")
	}
	if raceDetectorEnabled {
		t.Skip("full block sweep is too slow under the race detector")
	}
	k, err := kernels.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		best int
		ps   int64
	}
	var results []outcome
	for _, par := range []int{1, 4} {
		h := New(Options{GridScale: 0.1, Parallelism: par})
		best, tot, err := h.BestStaticBlocks(k)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, outcome{best, tot.TimePS})
	}
	if results[0] != results[1] {
		t.Errorf("sweep outcome depends on parallelism: %+v", results)
	}
}

// TestKeyedFiguresRunThroughTheCache: Figures 2b, 4 and 11b read harness
// cells. On a fresh harness they simulate exactly the 27 baseline cells and
// the two spmv cells; a second harness on the same disk cache simulates
// nothing and returns the same figure data, so each invocation's census and
// SM 0's Equalizer trace survive the disk round trip. The census and the
// trace stay off the Totals JSON, which keeps its seven keys.
func TestKeyedFiguresRunThroughTheCache(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type figures struct {
		fig2b  []gpu.EpochPoint
		fig4   []Fig4Row
		fig11b Fig11bData
	}
	run := func() (*Harness, figures) {
		h := New(Options{GridScale: keyedScale, Parallelism: 2, Cache: cache})
		var f figures
		var err error
		if f.fig4, err = h.Figure4(); err != nil {
			t.Fatal(err)
		}
		if f.fig2b, err = h.Figure2b(); err != nil {
			t.Fatal(err)
		}
		if f.fig11b, err = h.Figure11b(); err != nil {
			t.Fatal(err)
		}
		return h, f
	}
	h, cold := run()
	want := uint64(len(kernels.All()) + 2)
	if st := h.SchedulerStats(); st.Simulated != want || st.CacheStores != want {
		t.Errorf("cold figures: %+v, want %d simulated and stored", st, want)
	}
	if len(cold.fig2b) == 0 || len(cold.fig11b.Equalizer) == 0 || len(cold.fig11b.DynCTA) == 0 {
		t.Fatalf("empty series at scale %g: %d fig2b, %d equalizer, %d dynCTA epochs", keyedScale,
			len(cold.fig2b), len(cold.fig11b.Equalizer), len(cold.fig11b.DynCTA))
	}
	h2, warm := run()
	if st := h2.SchedulerStats(); st.Simulated != 0 || st.CacheHits != want {
		t.Errorf("warm figures: %+v, want 0 simulated and %d cache hits", st, want)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("figure data from the disk cache differs:\ncold %+v\nwarm %+v", cold, warm)
	}

	// Figure 11b's Equalizer cell is the one eqsim runs for
	// `-policy equalizer-perf -set disablefrequency=1`: a fresh harness
	// finds it on disk.
	k, err := kernels.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	gpuCfg, eq := config.Default(), config.DefaultEqualizer()
	if err := config.ApplyOverrides(&gpuCfg, &eq, "disablefrequency=1"); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSetup("equalizer-perf", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	h3 := New(Options{GridScale: keyedScale, Cache: cache})
	cli, err := h3.Run(k, parsed.WithEqualizer(eq))
	if err != nil {
		t.Fatal(err)
	}
	if st := h3.SchedulerStats(); st.Simulated != 0 || st.CacheHits != 1 {
		t.Errorf("-set disablefrequency=1 cell: %+v, want 0 simulated and 1 cache hit", st)
	}
	if !reflect.DeepEqual(cli.Trace[0], warm.fig11b.Equalizer) {
		t.Error("-set disablefrequency=1 cell's trace differs from Figure 11b's")
	}

	tot, err := h2.Run(k, EqualizerSetup(core.PerformanceMode))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(tot)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range keys {
		got = append(got, key)
	}
	sort.Strings(got)
	if w := []string{"DRAMUtil", "EnergyJ", "L1Hit", "PerInvocationPS", "Residency", "SMCycles", "TimePS"}; !reflect.DeepEqual(got, w) {
		t.Errorf("Totals JSON keys = %v, want %v", got, w)
	}
}

// keyedScale is the smallest grid scale at which every series the keyed
// figures read holds at least one complete epoch.
const keyedScale = 0.1
