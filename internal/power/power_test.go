package power

import (
	"math"
	"testing"
	"testing/quick"

	"equalizer/internal/config"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default power config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.LeakageW = -1 },
		func(c *Config) { c.Modulation = 0 },
		func(c *Config) { c.EnergyPerALU = -1 },
		func(c *Config) { c.EnergyPerDRAM = -1 },
		func(c *Config) { c.SMClockW = -1 },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLeakageProportionalToTime(t *testing.T) {
	m := NewMeter(Default())
	m.AccumulateSM(config.VFNormal, SMTotals{TimePS: 1e12}) // 1 second
	b := m.Energy()
	if math.Abs(b.Leakage-41.9) > 1e-9 {
		t.Fatalf("leakage over 1 s = %g J, want 41.9", b.Leakage)
	}
}

func TestDynamicEnergyScalesWithVoltageSquared(t *testing.T) {
	cfg := Default()
	normal := NewMeter(cfg)
	normal.AccumulateSM(config.VFNormal, SMTotals{ALU: 1000})
	high := NewMeter(cfg)
	high.AccumulateSM(config.VFHigh, SMTotals{ALU: 1000})
	ratio := high.Energy().SMDynamic / normal.Energy().SMDynamic
	want := 1.15 * 1.15
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("dynamic energy ratio = %g, want %g", ratio, want)
	}
}

func TestClockEnergyScalesWithV2F(t *testing.T) {
	cfg := Default()
	normal := NewMeter(cfg)
	normal.AccumulateSM(config.VFNormal, SMTotals{ActiveSMTimePS: 1e12, TimePS: 1e12})
	low := NewMeter(cfg)
	low.AccumulateSM(config.VFLow, SMTotals{ActiveSMTimePS: 1e12, TimePS: 1e12})
	ratio := low.Energy().SMClock / normal.Energy().SMClock
	want := 0.85 * 0.85 * 0.85
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("clock energy ratio = %g, want %g", ratio, want)
	}
}

func TestStandbyRisesWithMemLevel(t *testing.T) {
	cfg := Default()
	lo := NewMeter(cfg)
	lo.AccumulateMem(config.VFLow, MemTotals{TimePS: 1e12})
	hi := NewMeter(cfg)
	hi.AccumulateMem(config.VFHigh, MemTotals{TimePS: 1e12})
	if lo.Energy().Standby >= hi.Energy().Standby {
		t.Fatalf("standby low (%g) not below high (%g)",
			lo.Energy().Standby, hi.Energy().Standby)
	}
	norm := NewMeter(cfg)
	norm.AccumulateMem(config.VFNormal, MemTotals{TimePS: 1e12})
	if math.Abs(norm.Energy().Standby-cfg.DRAMStandbyW) > 1e-9 {
		t.Fatalf("nominal standby over 1 s = %g, want %g", norm.Energy().Standby, cfg.DRAMStandbyW)
	}
}

func TestDRAMAccessEnergy(t *testing.T) {
	cfg := Default()
	m := NewMeter(cfg)
	m.AccumulateMem(config.VFNormal, MemTotals{DRAM: 1000})
	want := 1000 * cfg.EnergyPerDRAM
	if got := m.Energy().DRAMAccess; math.Abs(got-want) > 1e-15 {
		t.Fatalf("DRAM energy = %g, want %g", got, want)
	}
}

func TestBreakdownTotalSumsComponents(t *testing.T) {
	m := NewMeter(Default())
	m.AccumulateSM(config.VFNormal, SMTotals{ALU: 10, MEM: 5, L1: 5, TimePS: 1e9, ActiveSMTimePS: 1e9})
	m.AccumulateMem(config.VFHigh, MemTotals{L2: 3, DRAM: 2, TimePS: 1e9})
	b := m.Energy()
	sum := b.Leakage + b.SMDynamic + b.SMClock + b.MemClock + b.DRAMAccess + b.Standby + b.L2Access
	if math.Abs(b.Total()-sum) > 1e-18 {
		t.Fatalf("Total() = %g, sum = %g", b.Total(), sum)
	}
}

func TestReset(t *testing.T) {
	m := NewMeter(Default())
	m.AccumulateSM(config.VFNormal, SMTotals{ALU: 100, TimePS: 1e9})
	m.Reset()
	if m.Energy().Total() != 0 {
		t.Fatal("energy nonzero after reset")
	}
}

// Property: energy is non-negative and monotonic in activity.
func TestQuickEnergyMonotonic(t *testing.T) {
	f := func(alu1, alu2 uint16, level uint8) bool {
		l := config.VFLevel(int(level) % 3)
		a := NewMeter(Default())
		a.AccumulateSM(l, SMTotals{ALU: uint64(alu1)})
		b := NewMeter(Default())
		b.AccumulateSM(l, SMTotals{ALU: uint64(alu1) + uint64(alu2)})
		ea, eb := a.Energy().Total(), b.Energy().Total()
		return ea >= 0 && eb >= ea
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
