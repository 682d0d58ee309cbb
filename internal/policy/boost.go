package policy

import (
	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
)

// PowerBoost models the commercial GPU Boost / Boost 2.0 mechanism the paper
// contrasts Equalizer against (Section VI): the core clock is raised
// whenever the estimated chip power sits below the board budget and lowered
// when it exceeds it — the decision depends only on the power headroom and
// never on what the kernel actually needs, so a memory-bound kernel gets a
// useless (and costly) core boost while its true bottleneck stays at
// nominal frequency.
type PowerBoost struct {
	// BudgetW is the board power budget (TDP).
	BudgetW float64
	// MarginW is the headroom kept below the budget before boosting.
	MarginW float64
	// WindowCycles is the decision interval.
	WindowCycles int

	pcfg power.Config
	last struct {
		issued uint64
		cycles uint64
	}
}

var _ gpu.Policy = (*PowerBoost)(nil)

// NewPowerBoost builds the policy with a budget typical of the modelled
// board class.
func NewPowerBoost() *PowerBoost {
	return &PowerBoost{
		BudgetW:      165,
		MarginW:      10,
		WindowCycles: 4096,
		pcfg:         power.Default(),
	}
}

// Name implements gpu.Policy.
func (p *PowerBoost) Name() string { return "gpu-boost" }

// Reset implements gpu.Policy.
func (p *PowerBoost) Reset(m *gpu.Machine, _ kernels.Kernel) {
	p.last.issued = 0
	p.last.cycles = 0
}

// estimatePower is the on-board power model of the boost controller: a
// first-order estimate from the issue rate and the current operating point.
// Real boost hardware uses current sensors; the estimate plays that role.
func (p *PowerBoost) estimatePower(m *gpu.Machine, issueRate float64) float64 {
	smMult := m.SMLevel().Multiplier(p.pcfg.Modulation)
	memMult := m.MemLevel().Multiplier(p.pcfg.Modulation)
	v2 := smMult * smMult
	// Issue rate is warp instructions per SM cycle across the chip; convert
	// to watts with the mean per-instruction energy at the current voltage
	// and the nominal clock (1 cycle per SMClockPS picoseconds).
	cycleSeconds := float64(m.Config().SMClockPS) * 1e-12 / smMult
	dynamic := issueRate * p.pcfg.EnergyPerALU * v2 / cycleSeconds
	// float64(…): no fused multiply-add (see power.Meter.Energy).
	static := p.pcfg.LeakageW +
		float64(p.pcfg.SMClockW*float64(m.NumSMs())*v2*smMult) +
		float64(p.pcfg.MemClockW*memMult*memMult*memMult) +
		p.pcfg.DRAMStandbyW
	return static + dynamic
}

// OnSMCycle implements gpu.Policy.
func (p *PowerBoost) OnSMCycle(m *gpu.Machine, _ clock.Time, smCycle int64) {
	if smCycle%int64(p.WindowCycles) != 0 {
		return
	}
	var issued, cycles uint64
	for i := 0; i < m.NumSMs(); i++ {
		st := m.SM(i).Stats()
		issued += st.IssuedALU + st.IssuedSFU + st.IssuedMEM + st.IssuedTEX
		cycles = st.Cycles
	}
	dIssued := issued - p.last.issued
	dCycles := cycles - p.last.cycles
	p.last.issued, p.last.cycles = issued, cycles
	if dCycles == 0 {
		return
	}
	rate := float64(dIssued) / float64(dCycles)
	est := p.estimatePower(m, rate)
	switch {
	case est < p.BudgetW-p.MarginW && m.SMLevel() < config.VFHigh:
		m.RequestSMLevel(m.SMLevel().Step(+1))
	case est > p.BudgetW && m.SMLevel() > config.VFLow:
		m.RequestSMLevel(m.SMLevel().Step(-1))
	}
}
