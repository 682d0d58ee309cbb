package core

import (
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
	"equalizer/internal/telemetry"
)

func machine(t *testing.T, p gpu.Policy) *gpu.Machine {
	t.Helper()
	m, err := gpu.New(config.Default(), power.Default(), p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func kernel(t *testing.T, name string, grid int) kernels.Kernel {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if grid > 0 {
		k.GridBlocks = grid
	}
	return k
}

func run(t *testing.T, p gpu.Policy, name string, grid int) gpu.Result {
	t.Helper()
	res, err := machine(t, p).RunKernel(kernel(t, name, grid), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEqualizerWctaFollowsTheKernel runs cutcp (W_cta 6) and then bfs-2
// (W_cta 16) back to back on one machine under one Equalizer. Every epoch
// decision of each run must be Algorithm 1 on the recorded counters with
// that run's kernel's W_cta, not the previous kernel's; at least one epoch
// decides differently under the other kernel's W_cta, so the check can tell.
func TestEqualizerWctaFollowsTheKernel(t *testing.T) {
	eq := New(PerformanceMode)
	eq.Record = true
	m := machine(t, eq)
	bus := telemetry.NewBus(1<<16, telemetry.MaskOf(telemetry.KindEpochDecision))
	m.AttachTelemetry(bus)
	ks := []kernels.Kernel{kernel(t, "cutcp", 60), kernel(t, "bfs-2", 0)}
	memSat := config.DefaultEqualizer().MemSaturationWarps
	discriminates := false
	for i, k := range ks {
		other := ks[1-i].Wcta
		if _, err := m.RunKernel(k, 0); err != nil {
			t.Fatal(err)
		}
		if eq.wcta != k.Wcta {
			t.Fatalf("%s: W_cta %d after Reset, want %d", k.Name, eq.wcta, k.Wcta)
		}
		events := bus.Events()
		bus.Reset()
		if len(events) != m.NumSMs()*len(eq.Trace()) || len(events) == 0 {
			t.Fatalf("%s: %d decisions for %d SMs x %d epochs", k.Name, len(events), m.NumSMs(), len(eq.Trace()))
		}
		for j, e := range events {
			p := eq.TraceSM(int(e.Src))[j/m.NumSMs()]
			got := Decision{Tendency: Tendency(e.A), BlockDelta: int(e.B)}
			if want := Decide(p.Counters, k.Wcta, memSat); got != want {
				t.Fatalf("%s SM %d epoch %d: decided %+v, want %+v with W_cta %d",
					k.Name, e.Src, p.Epoch, got, want, k.Wcta)
			}
			if Decide(p.Counters, other, memSat) != got {
				discriminates = true
			}
		}
	}
	if !discriminates {
		t.Error("no epoch decides differently under the other kernel's W_cta")
	}
}

func TestPerformanceModeBoostsComputeKernelSM(t *testing.T) {
	eq := New(PerformanceMode)
	eq.Record = true
	res := run(t, eq, "cutcp", 60)
	base := run(t, nil, "cutcp", 60)
	if res.TimePS >= base.TimePS {
		t.Fatalf("performance mode (%d ps) not faster than baseline (%d ps)", res.TimePS, base.TimePS)
	}
	// The SM domain must have spent time boosted; the memory domain not.
	if res.Residency.SM[config.VFHigh] == 0 {
		t.Fatal("compute kernel never reached SM-high in performance mode")
	}
	if res.Residency.Mem[config.VFHigh] > res.Residency.SM[config.VFHigh] {
		t.Fatal("memory domain boosted more than SM domain on a compute kernel")
	}
}

func TestPerformanceModeBoostsMemoryKernelDRAM(t *testing.T) {
	eq := New(PerformanceMode)
	res := run(t, eq, "lbm", 105)
	base := run(t, nil, "lbm", 105)
	if res.TimePS >= base.TimePS {
		t.Fatal("performance mode not faster on a memory kernel")
	}
	if res.Residency.Mem[config.VFHigh] == 0 {
		t.Fatal("memory kernel never reached mem-high in performance mode")
	}
}

func TestEnergyModeNeverBoosts(t *testing.T) {
	for _, name := range []string{"cutcp", "lbm", "kmn"} {
		eq := New(EnergyMode)
		res := run(t, eq, name, 45)
		if res.Residency.SM[config.VFHigh] != 0 || res.Residency.Mem[config.VFHigh] != 0 {
			t.Fatalf("%s: energy mode reached a boosted state", name)
		}
	}
}

func TestEnergyModeSavesEnergyOnComputeKernel(t *testing.T) {
	base := run(t, nil, "cutcp", 60)
	res := run(t, New(EnergyMode), "cutcp", 60)
	if res.EnergyJ() >= base.EnergyJ() {
		t.Fatalf("energy mode used %.4g J vs baseline %.4g J", res.EnergyJ(), base.EnergyJ())
	}
	slowdown := float64(res.TimePS)/float64(base.TimePS) - 1
	if slowdown > 0.05 {
		t.Fatalf("energy mode slowed a compute kernel by %.1f%% (memory throttling must be free)", slowdown*100)
	}
	// For a compute kernel the throttled domain must be memory (Table I).
	if res.Residency.Mem[config.VFLow] == 0 {
		t.Fatal("memory domain never throttled")
	}
	if res.Residency.SM[config.VFLow] > res.Residency.Mem[config.VFLow]/2 {
		t.Fatal("SM domain throttled on a compute kernel")
	}
}

func TestEnergyModeThrottlesSMOnMemoryKernel(t *testing.T) {
	base := run(t, nil, "lbm", 105)
	res := run(t, New(EnergyMode), "lbm", 105)
	if res.EnergyJ() >= base.EnergyJ() {
		t.Fatal("no energy saved on memory kernel")
	}
	if res.Residency.SM[config.VFLow] == 0 {
		t.Fatal("SM domain never throttled on a memory kernel")
	}
}

func TestCacheKernelBlockThrottling(t *testing.T) {
	eq := New(PerformanceMode)
	eq.Record = true
	m := machine(t, eq)
	k := kernel(t, "kmn", 90)
	res, err := m.RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	trace := eq.Trace()
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}
	final := trace[len(trace)-1].TargetBlocks
	if final >= k.MaxResidentBlocks(48) {
		t.Fatalf("cache kernel kept %d blocks, want throttled", final)
	}
	if res.L1HitRate < 0.3 {
		t.Fatalf("L1 hit rate %.2f after throttling, want recovered", res.L1HitRate)
	}
}

func TestHysteresisDelaysBlockChanges(t *testing.T) {
	eq := New(PerformanceMode)
	eq.Record = true
	m := machine(t, eq)
	k := kernel(t, "kmn", 90)
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	// The first block change can happen no earlier than epoch `Hysteresis`.
	cfg := config.DefaultEqualizer()
	maxBlocks := k.MaxResidentBlocks(48)
	for _, p := range eq.Trace() {
		if p.TargetBlocks < maxBlocks {
			if p.Epoch < cfg.Hysteresis {
				t.Fatalf("block change at epoch %d, before hysteresis %d", p.Epoch, cfg.Hysteresis)
			}
			return
		}
	}
	t.Fatal("blocks never changed for a thrashing kernel")
}

// blocksOnly is the Figure 11 controller: performance mode with VF
// control off.
func blocksOnly() *Equalizer {
	cfg := config.DefaultEqualizer()
	cfg.DisableFrequency = true
	return NewWithConfig(PerformanceMode, cfg)
}

func TestDisableFrequencyIsolatesBlockControl(t *testing.T) {
	eq := blocksOnly()
	res := run(t, eq, "kmn", 90)
	if res.Residency.SM[config.VFHigh] != 0 || res.Residency.Mem[config.VFHigh] != 0 ||
		res.Residency.SM[config.VFLow] != 0 || res.Residency.Mem[config.VFLow] != 0 {
		t.Fatal("frequency moved despite DisableFrequency")
	}
	base := run(t, nil, "kmn", 90)
	if res.TimePS >= base.TimePS {
		t.Fatal("block control alone gave no speedup on a cache kernel")
	}
}

func TestDisableBlocksIsolatesFrequencyControl(t *testing.T) {
	cfg := config.DefaultEqualizer()
	cfg.DisableBlocks = true
	eq := NewWithConfig(PerformanceMode, cfg)
	m := machine(t, eq)
	k := kernel(t, "kmn", 90)
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	if tb := m.SM(0).TargetBlocks(); tb != k.MaxResidentBlocks(48) {
		t.Fatalf("blocks changed to %d despite DisableBlocks", tb)
	}
}

func TestAdaptsAcrossInvocations(t *testing.T) {
	// bfs-2's mid invocations are cache-bound; Equalizer must beat the
	// static-maximum baseline over the full launch sequence.
	k := kernel(t, "bfs-2", 0)
	eq := blocksOnly()
	eqM := machine(t, eq)
	baseM := machine(t, nil)
	var eqTotal, baseTotal int64
	for inv := 0; inv < k.Invocations; inv++ {
		r1, err := eqM.RunKernel(k, inv)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := baseM.RunKernel(k, inv)
		if err != nil {
			t.Fatal(err)
		}
		eqTotal += r1.TimePS
		baseTotal += r2.TimePS
	}
	if eqTotal >= baseTotal {
		t.Fatalf("equalizer total %d ps not below baseline %d ps", eqTotal, baseTotal)
	}
}

func TestIntraInvocationAdaptation(t *testing.T) {
	// spmv: blocks must first fall (cache phase) then recover (latency
	// phase) — the Figure 11b behaviour.
	eq := blocksOnly()
	eq.Record = true
	m := machine(t, eq)
	k := kernel(t, "spmv", 0)
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	trace := eq.Trace()
	minBlocks, maxAfterMin := 99, 0
	minAt := -1
	for i, p := range trace {
		if p.TargetBlocks < minBlocks {
			minBlocks, minAt = p.TargetBlocks, i
		}
	}
	for _, p := range trace[minAt:] {
		if p.TargetBlocks > maxAfterMin {
			maxAfterMin = p.TargetBlocks
		}
	}
	if minBlocks >= k.MaxResidentBlocks(48) {
		t.Fatal("spmv blocks never dropped in the cache phase")
	}
	if maxAfterMin <= minBlocks {
		t.Fatalf("spmv blocks never recovered after the cache phase (min %d, later max %d)",
			minBlocks, maxAfterMin)
	}
}

func TestVotingIsGlobal(t *testing.T) {
	// A kernel occupying all SMs identically must move the global domains;
	// the residency proves a majority vote succeeded.
	res := run(t, New(PerformanceMode), "sgemm", 90)
	if res.Residency.SM[config.VFHigh] == 0 {
		t.Fatal("majority vote never boosted the SM domain")
	}
}

func TestTraceRecordingOffByDefault(t *testing.T) {
	eq := New(PerformanceMode)
	run(t, eq, "cutcp", 30)
	if len(eq.Trace()) != 0 {
		t.Fatal("trace recorded without Record")
	}
}
