// Package policy provides the non-Equalizer runtime policies used in the
// paper's evaluation: fixed operating points (static block counts), the
// DynCTA heuristic of Kayiran et al. [15], the cache-conscious wavefront
// scheduling (CCWS) of Rogers et al. [26], and a passive Monitor that
// records warp-state statistics for the characterisation figures.
package policy

import (
	"equalizer/internal/clock"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
)

// StaticBlocks pins every SM's resident-block ceiling to a constant.
type StaticBlocks struct{ n int }

var _ gpu.Policy = (*StaticBlocks)(nil)

// NewStaticBlocks builds the policy; n is clamped per-kernel by the machine.
func NewStaticBlocks(n int) *StaticBlocks { return &StaticBlocks{n: n} }

// Name implements gpu.Policy.
func (p *StaticBlocks) Name() string { return "static-blocks" }

// Reset implements gpu.Policy.
func (p *StaticBlocks) Reset(m *gpu.Machine, _ kernels.Kernel) {
	m.SetAllTargetBlocks(p.n)
}

// OnSMCycle implements gpu.Policy.
func (p *StaticBlocks) OnSMCycle(*gpu.Machine, clock.Time, int64) {}

// Multi fans a machine's policy hooks out to several policies in order. It
// lets a passive Monitor observe a run driven by an active policy (the
// Figure 11b study records DynCTA's concurrency choices this way).
type Multi []gpu.Policy

var _ gpu.Policy = (Multi)(nil)

// Name implements gpu.Policy.
func (m Multi) Name() string {
	names := make([]string, len(m))
	for i, p := range m {
		names[i] = p.Name()
	}
	return "multi(" + joinNames(names) + ")"
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "+"
		}
		out += n
	}
	return out
}

// Reset implements gpu.Policy.
func (m Multi) Reset(machine *gpu.Machine, k kernels.Kernel) {
	for _, p := range m {
		p.Reset(machine, k)
	}
}

// OnSMCycle implements gpu.Policy.
func (m Multi) OnSMCycle(machine *gpu.Machine, now clock.Time, smCycle int64) {
	for _, p := range m {
		p.OnSMCycle(machine, now, smCycle)
	}
}

// Monitor passively samples the warp-state census every sampleInterval
// cycles, accumulating the state distribution of Figure 4 and the per-epoch
// time series of Figure 2b. It never changes any parameter.
type Monitor struct {
	// SampleInterval and EpochCycles default to the paper's 128/4096.
	SampleInterval int
	EpochCycles    int

	sums   StateSums
	series []EpochPoint
	acc    StateSums
	accN   int
}

// StateSums accumulates census sums across samples and SMs.
type StateSums struct {
	Active, Waiting, Issued, XALU, XMEM, Others int64
}

// EpochPoint is one epoch of mean per-SM census values.
type EpochPoint struct {
	Epoch                               int
	Active, Waiting, XALU, XMEM, Issued float64
}

var _ gpu.Policy = (*Monitor)(nil)

// NewMonitor builds a monitor with the paper's sampling parameters.
func NewMonitor() *Monitor { return &Monitor{SampleInterval: 128, EpochCycles: 4096} }

// Name implements gpu.Policy.
func (p *Monitor) Name() string { return "monitor" }

// Reset implements gpu.Policy.
func (p *Monitor) Reset(*gpu.Machine, kernels.Kernel) {
	p.sums = StateSums{}
	p.series = p.series[:0]
	p.acc = StateSums{}
	p.accN = 0
}

// OnSMCycle implements gpu.Policy.
func (p *Monitor) OnSMCycle(m *gpu.Machine, _ clock.Time, smCycle int64) {
	if smCycle%int64(p.SampleInterval) != 0 {
		return
	}
	var s StateSums
	for i := 0; i < m.NumSMs(); i++ {
		snap := m.SM(i).Snapshot()
		s.Active += int64(snap.Active)
		s.Waiting += int64(snap.Waiting)
		s.Issued += int64(snap.Issued)
		s.XALU += int64(snap.XALU)
		s.XMEM += int64(snap.XMEM)
		s.Others += int64(snap.Others)
	}
	p.sums.Active += s.Active
	p.sums.Waiting += s.Waiting
	p.sums.Issued += s.Issued
	p.sums.XALU += s.XALU
	p.sums.XMEM += s.XMEM
	p.sums.Others += s.Others

	p.acc.Active += s.Active
	p.acc.Waiting += s.Waiting
	p.acc.Issued += s.Issued
	p.acc.XALU += s.XALU
	p.acc.XMEM += s.XMEM
	p.accN++
	if smCycle%int64(p.EpochCycles) == 0 {
		n := float64(p.accN * m.NumSMs())
		p.series = append(p.series, EpochPoint{
			Epoch:   len(p.series) + 1,
			Active:  float64(p.acc.Active) / n,
			Waiting: float64(p.acc.Waiting) / n,
			XALU:    float64(p.acc.XALU) / n,
			XMEM:    float64(p.acc.XMEM) / n,
			Issued:  float64(p.acc.Issued) / n,
		})
		p.acc = StateSums{}
		p.accN = 0
	}
}

// Distribution returns the mean per-SM census over the run: the fractions of
// warps observed in each state, normalised by accounted warps
// (active = waiting + issued + Xalu + Xmem after excluding Others).
func (p *Monitor) Distribution() (waiting, issued, xalu, xmem float64) {
	total := float64(p.sums.Waiting + p.sums.Issued + p.sums.XALU + p.sums.XMEM)
	if total == 0 {
		return 0, 0, 0, 0
	}
	return float64(p.sums.Waiting) / total,
		float64(p.sums.Issued) / total,
		float64(p.sums.XALU) / total,
		float64(p.sums.XMEM) / total
}

// Series returns the per-epoch time series.
func (p *Monitor) Series() []EpochPoint { return p.series }
