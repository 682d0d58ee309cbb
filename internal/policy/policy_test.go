package policy

import (
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
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

func TestStaticBlocksPinsTarget(t *testing.T) {
	p := NewStaticBlocks(2)
	m := machine(t, p)
	res, err := m.RunKernel(kernel(t, "cutcp", 30), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SMCycles == 0 {
		t.Fatal("no progress")
	}
	if tb := m.SM(0).TargetBlocks(); tb != 2 {
		t.Fatalf("target blocks = %d, want 2", tb)
	}
	if p.Name() != "static-blocks" {
		t.Fatal("name wrong")
	}
}

func TestMonitorDistributionComputeKernel(t *testing.T) {
	mon := NewMonitor()
	m := machine(t, mon)
	if _, err := m.RunKernel(kernel(t, "cutcp", 30), 0); err != nil {
		t.Fatal(err)
	}
	w, i, xa, xm := mon.Distribution()
	sum := w + i + xa + xm
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("distribution sums to %g, want 1", sum)
	}
	if xa < 0.3 {
		t.Fatalf("compute kernel excess-ALU fraction = %.2f, want dominant", xa)
	}
	if xa <= xm {
		t.Fatalf("compute kernel has XALU %.2f <= XMEM %.2f", xa, xm)
	}
}

func TestMonitorDistributionMemoryKernel(t *testing.T) {
	mon := NewMonitor()
	m := machine(t, mon)
	if _, err := m.RunKernel(kernel(t, "lbm", 105), 0); err != nil {
		t.Fatal(err)
	}
	_, _, xa, xm := mon.Distribution()
	if xm <= xa {
		t.Fatalf("memory kernel has XMEM %.2f <= XALU %.2f", xm, xa)
	}
	if xm < 0.1 {
		t.Fatalf("memory kernel XMEM fraction = %.2f, want significant", xm)
	}
}

func TestMonitorSeriesTracksEpochs(t *testing.T) {
	mon := NewMonitor()
	m := machine(t, mon)
	if _, err := m.RunKernel(kernel(t, "cutcp", 60), 0); err != nil {
		t.Fatal(err)
	}
	series := mon.Series()
	if len(series) < 2 {
		t.Fatalf("series has %d epochs, want several", len(series))
	}
	for i, p := range series {
		if p.Epoch != i+1 {
			t.Fatalf("epoch numbering broken at %d: %d", i, p.Epoch)
		}
		if p.Active < 0 || p.Active > 48 {
			t.Fatalf("active out of range: %g", p.Active)
		}
	}
}

func TestMonitorResetClears(t *testing.T) {
	mon := NewMonitor()
	m := machine(t, mon)
	if _, err := m.RunKernel(kernel(t, "cutcp", 30), 0); err != nil {
		t.Fatal(err)
	}
	if len(mon.Series()) == 0 {
		t.Fatal("no series collected")
	}
	mon.Reset(m, kernels.Kernel{})
	if len(mon.Series()) != 0 {
		t.Fatal("series survived reset")
	}
	if w, i, xa, xm := mon.Distribution(); w+i+xa+xm != 0 {
		t.Fatal("distribution nonzero after reset")
	}
}

func TestDynCTAThrottlesCacheKernel(t *testing.T) {
	dyn := NewDynCTA()
	m := machine(t, dyn)
	k := kernel(t, "kmn", 90)
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	if tb := m.SM(0).TargetBlocks(); tb >= k.MaxResidentBlocks(48) {
		t.Fatalf("dynCTA never throttled: target still %d", tb)
	}
}

func TestDynCTAFasterThanBaselineOnCacheKernel(t *testing.T) {
	k := kernel(t, "kmn", 90)
	base, err := machine(t, nil).RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := machine(t, NewDynCTA()).RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.TimePS >= base.TimePS {
		t.Fatalf("dynCTA (%d ps) not faster than baseline (%d ps)", dyn.TimePS, base.TimePS)
	}
}

func TestDynCTADoesNotTouchFrequency(t *testing.T) {
	m := machine(t, NewDynCTA())
	if _, err := m.RunKernel(kernel(t, "lbm", 105), 0); err != nil {
		t.Fatal(err)
	}
	if m.SMLevel() != config.VFNormal || m.MemLevel() != config.VFNormal {
		t.Fatalf("dynCTA changed frequency: sm=%v mem=%v", m.SMLevel(), m.MemLevel())
	}
}

func TestCCWSThrottlesThrashingKernel(t *testing.T) {
	k := kernel(t, "kmn", 90)
	base, err := machine(t, nil).RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccws, err := machine(t, NewCCWS()).RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ccws.TimePS >= base.TimePS {
		t.Fatalf("CCWS (%d ps) not faster than thrashing baseline (%d ps)", ccws.TimePS, base.TimePS)
	}
	if ccws.L1HitRate <= base.L1HitRate {
		t.Fatalf("CCWS hit rate %.2f not above baseline %.2f", ccws.L1HitRate, base.L1HitRate)
	}
}

func TestCCWSHarmlessOnComputeKernel(t *testing.T) {
	k := kernel(t, "cutcp", 30)
	base, err := machine(t, nil).RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	ccws, err := machine(t, NewCCWS()).RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(ccws.TimePS) / float64(base.TimePS)
	if ratio > 1.05 {
		t.Fatalf("CCWS slowed a compute kernel by %.1f%%", (ratio-1)*100)
	}
}

func TestCCWSKeepsBlockCountAndFrequency(t *testing.T) {
	m := machine(t, NewCCWS())
	k := kernel(t, "kmn", 90)
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	if tb := m.SM(0).TargetBlocks(); tb != k.MaxResidentBlocks(48) {
		t.Fatalf("CCWS changed block target to %d", tb)
	}
	if m.SMLevel() != config.VFNormal || m.MemLevel() != config.VFNormal {
		t.Fatal("CCWS changed frequency")
	}
}

func TestMultiFansOut(t *testing.T) {
	mon := NewMonitor()
	dyn := NewDynCTA()
	multi := Multi{dyn, mon}
	if multi.Name() != "multi(dynCTA+monitor)" {
		t.Fatalf("multi name = %q", multi.Name())
	}
	m := machine(t, multi)
	k := kernel(t, "kmn", 90)
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	if len(mon.Series()) == 0 {
		t.Fatal("monitor saw nothing through Multi")
	}
	if tb := m.SM(0).TargetBlocks(); tb >= k.MaxResidentBlocks(48) {
		t.Fatal("dynCTA did not act through Multi")
	}
}

func TestPolicyNames(t *testing.T) {
	if NewDynCTA().Name() != "dynCTA" {
		t.Fatal("dynCTA name")
	}
	if NewCCWS().Name() != "CCWS" {
		t.Fatal("CCWS name")
	}
	if NewMonitor().Name() != "monitor" {
		t.Fatal("monitor name")
	}
}
