// Package power implements the activity-based energy model of the simulated
// GPU, playing the role GPUWattch/McPAT plus the Hynix GDDR5 datasheet play
// in the paper's evaluation (Section V-A.1):
//
//   - a constant chip leakage of 41.9 W (the GPUWattch GTX480 figure);
//   - SM dynamic energy proportional to issued instructions, scaled by V²
//     (voltage assumed linear in frequency, so a ±15% VF step scales
//     per-operation energy by (1±0.15)²);
//   - SM and memory-system clock-tree power proportional to V²·f;
//   - per-access L1/L2/DRAM energies, DRAM scaled by V² of the memory
//     domain;
//   - DRAM active-standby power that rises with the memory VF level (the
//     Idd2n effect: idle standby current is higher at higher data rates).
//
// The meter attributes activity to VF levels by accumulating per-level
// deltas that the GPU model flushes on every VF transition and at run end.
package power

import (
	"fmt"

	"equalizer/internal/config"
)

// Config holds the calibration constants. Powers are in watts, per-event
// energies in joules, times in picoseconds.
type Config struct {
	// LeakageW is the constant chip leakage power.
	LeakageW float64
	// EnergyPerALU/SFU/MEM are per-issued-warp-instruction energies at
	// nominal voltage.
	EnergyPerALU float64
	EnergyPerSFU float64
	EnergyPerMEM float64
	// EnergyPerL1 is per L1 line access.
	EnergyPerL1 float64
	// EnergyPerL2 is per L2 line access.
	EnergyPerL2 float64
	// EnergyPerDRAM is per serviced DRAM request (one 128-byte line).
	EnergyPerDRAM float64
	// SMClockW is the clock-tree/pipeline idle power per active SM at
	// nominal VF.
	SMClockW float64
	// MemClockW is the memory-system (interconnect, L2, memory controller)
	// background power at nominal VF.
	MemClockW float64
	// DRAMStandbyW is the DRAM active-standby power at nominal VF.
	DRAMStandbyW float64
	// StandbySlope is the fractional standby-power increase per unit of
	// frequency-multiplier increase (Idd2n sensitivity).
	StandbySlope float64
	// Modulation mirrors the GPU config's VF modulation fraction.
	Modulation float64
}

// Default returns constants calibrated so that the baseline machine draws
// roughly 130 W under load with leakage near one third of total — the
// GPUWattch GTX480 profile the paper relies on.
func Default() Config {
	return Config{
		LeakageW:      41.9,
		EnergyPerALU:  3.2e-9,
		EnergyPerSFU:  6.4e-9,
		EnergyPerMEM:  2.4e-9,
		EnergyPerL1:   1.0e-9,
		EnergyPerL2:   5.0e-9,
		EnergyPerDRAM: 28.0e-9,
		SMClockW:      1.35,
		MemClockW:     18.0,
		DRAMStandbyW:  11.0,
		StandbySlope:  1.0,
		Modulation:    0.15,
	}
}

// Validate reports a descriptive error for unusable constants.
func (c Config) Validate() error {
	switch {
	case c.LeakageW < 0:
		return fmt.Errorf("power: LeakageW must be non-negative, got %g", c.LeakageW)
	case c.Modulation <= 0 || c.Modulation >= 1:
		return fmt.Errorf("power: Modulation must be in (0,1), got %g", c.Modulation)
	case c.EnergyPerALU < 0 || c.EnergyPerSFU < 0 || c.EnergyPerMEM < 0:
		return fmt.Errorf("power: instruction energies must be non-negative")
	case c.EnergyPerL1 < 0 || c.EnergyPerL2 < 0 || c.EnergyPerDRAM < 0:
		return fmt.Errorf("power: access energies must be non-negative")
	case c.SMClockW < 0 || c.MemClockW < 0 || c.DRAMStandbyW < 0:
		return fmt.Errorf("power: background powers must be non-negative")
	}
	return nil
}

// SMTotals is the SM-side activity attributed to one VF level.
type SMTotals struct {
	// ALU, SFU, MEM count issued warp instructions; L1 counts line probes.
	ALU, SFU, MEM, L1 uint64
	// ActiveSMTimePS is the sum over cycles of period × active SM count.
	ActiveSMTimePS int64
	// TimePS is wall time spent at the level.
	TimePS int64
}

// MemTotals is the memory-side activity attributed to one VF level.
type MemTotals struct {
	// L2 counts L2 probes; DRAM counts serviced requests.
	L2, DRAM uint64
	// TimePS is wall time spent at the level.
	TimePS int64
}

// Breakdown is the decomposed energy of a run, in joules.
type Breakdown struct {
	Leakage    float64
	SMDynamic  float64
	SMClock    float64
	MemClock   float64
	DRAMAccess float64
	Standby    float64
	L2Access   float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 {
	return b.Leakage + b.SMDynamic + b.SMClock + b.MemClock + b.DRAMAccess + b.Standby + b.L2Access
}

// Meter accumulates per-level activity and converts it to energy.
type Meter struct {
	cfg Config
	sm  [3]SMTotals
	mem [3]MemTotals
}

// NewMeter builds a meter; it panics on invalid configuration since the
// constants are static calibration data.
func NewMeter(cfg Config) *Meter {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Meter{cfg: cfg}
}

// AccumulateSM attributes an SM-side activity delta to a VF level.
func (m *Meter) AccumulateSM(level config.VFLevel, d SMTotals) {
	t := &m.sm[level]
	t.ALU += d.ALU
	t.SFU += d.SFU
	t.MEM += d.MEM
	t.L1 += d.L1
	t.ActiveSMTimePS += d.ActiveSMTimePS
	t.TimePS += d.TimePS
}

// AccumulateMem attributes a memory-side activity delta to a VF level.
func (m *Meter) AccumulateMem(level config.VFLevel, d MemTotals) {
	t := &m.mem[level]
	t.L2 += d.L2
	t.DRAM += d.DRAM
	t.TimePS += d.TimePS
}

// Reset clears all accumulated activity.
func (m *Meter) Reset() {
	m.sm = [3]SMTotals{}
	m.mem = [3]MemTotals{}
}

const psToS = 1e-12

// Energy converts the accumulated activity into a joule breakdown. float64(…)
// rounds each summed product so no host fuses it into a multiply-add and the
// result has the same bits everywhere (CI checks arm64 and ppc64le assembly).
func (m *Meter) Energy() Breakdown {
	var b Breakdown
	for l := config.VFLow; l <= config.VFHigh; l++ {
		mult := l.Multiplier(m.cfg.Modulation)
		v2 := mult * mult
		s := m.sm[l]
		b.Leakage += float64(m.cfg.LeakageW * float64(s.TimePS) * psToS)
		b.SMDynamic += float64(v2 * (float64(float64(s.ALU)*m.cfg.EnergyPerALU) +
			float64(float64(s.SFU)*m.cfg.EnergyPerSFU) +
			float64(float64(s.MEM)*m.cfg.EnergyPerMEM) +
			float64(float64(s.L1)*m.cfg.EnergyPerL1)))
		b.SMClock += float64(m.cfg.SMClockW * v2 * mult * float64(s.ActiveSMTimePS) * psToS)

		mm := m.mem[l]
		b.MemClock += float64(m.cfg.MemClockW * v2 * mult * float64(mm.TimePS) * psToS)
		b.Standby += float64(m.cfg.DRAMStandbyW * (1 + float64(m.cfg.StandbySlope*(mult-1))) * float64(mm.TimePS) * psToS)
		b.L2Access += float64(v2 * float64(mm.L2) * m.cfg.EnergyPerL2)
		b.DRAMAccess += float64(v2 * float64(mm.DRAM) * m.cfg.EnergyPerDRAM)
	}
	return b
}
