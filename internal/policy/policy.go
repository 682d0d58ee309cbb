// Package policy provides the non-Equalizer runtime policies used in the
// paper's evaluation: fixed operating points (static block counts), the
// DynCTA heuristic of Kayiran et al. [15], the cache-conscious wavefront
// scheduling (CCWS) of Rogers et al. [26], and a passive Monitor that
// records warp-state statistics for the characterisation figures.
package policy

import (
	"math"

	"equalizer/internal/clock"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
)

// StaticBlocks pins every SM's resident-block ceiling to a constant.
type StaticBlocks struct{ n int }

var (
	_ gpu.Policy           = (*StaticBlocks)(nil)
	_ gpu.FastForwardAware = (*StaticBlocks)(nil)
)

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

// NextActiveCycle implements gpu.FastForwardAware: the policy never acts.
func (p *StaticBlocks) NextActiveCycle(int64) int64 { return math.MaxInt64 }

// AccumulateSpan implements gpu.FastForwardAware: nothing to accumulate.
func (p *StaticBlocks) AccumulateSpan(*gpu.Machine, int64, int64) {}

// Multi fans a machine's policy hooks out to several policies in order. It
// lets a passive Monitor observe a run driven by an active policy (the
// Figure 11b study records DynCTA's concurrency choices this way).
type Multi []gpu.Policy

var (
	_ gpu.Policy           = (Multi)(nil)
	_ gpu.FastForwardAware = (Multi)(nil)
)

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

// NextActiveCycle implements gpu.FastForwardAware: the earliest member
// activity. A member that is not fast-forward aware may act on any cycle, so
// the fan-out reports the very next cycle as active, disabling skips.
func (m Multi) NextActiveCycle(smCycle int64) int64 {
	next := int64(math.MaxInt64)
	for _, p := range m {
		a, ok := p.(gpu.FastForwardAware)
		if !ok {
			return smCycle + 1
		}
		if at := a.NextActiveCycle(smCycle); at < next {
			next = at
		}
	}
	return next
}

// AccumulateSpan implements gpu.FastForwardAware.
func (m Multi) AccumulateSpan(machine *gpu.Machine, fromCycle, toCycle int64) {
	for _, p := range m {
		if a, ok := p.(gpu.FastForwardAware); ok {
			a.AccumulateSpan(machine, fromCycle, toCycle)
		}
	}
}

// Monitor passively samples the warp-state census every sampleInterval
// cycles, accumulating the state distribution of Figure 4 and the per-epoch
// time series of Figure 2b. It never changes any parameter.
type Monitor struct {
	// SampleInterval and EpochCycles default to the paper's 128/4096.
	SampleInterval int
	EpochCycles    int

	sums    StateSums
	series  []EpochPoint
	acc     StateSums
	accN    int
	samples int
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

var (
	_ gpu.Policy           = (*Monitor)(nil)
	_ gpu.FastForwardAware = (*Monitor)(nil)
)

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
	p.samples = 0
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
	p.samples++

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

// NextActiveCycle implements gpu.FastForwardAware: the epoch-boundary series
// append is the only non-accumulate step.
func (p *Monitor) NextActiveCycle(smCycle int64) int64 {
	ec := int64(p.EpochCycles)
	return (smCycle/ec + 1) * ec
}

// AccumulateSpan implements gpu.FastForwardAware: add one sample per
// SampleInterval multiple in [fromCycle, toCycle], each an exact copy of the
// current census. Epoch boundaries never land inside a span (NextActiveCycle
// excludes them), so the series is untouched.
func (p *Monitor) AccumulateSpan(m *gpu.Machine, fromCycle, toCycle int64) {
	si := int64(p.SampleInterval)
	k := toCycle/si - (fromCycle-1)/si
	if k == 0 {
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
	p.sums.Active += k * s.Active
	p.sums.Waiting += k * s.Waiting
	p.sums.Issued += k * s.Issued
	p.sums.XALU += k * s.XALU
	p.sums.XMEM += k * s.XMEM
	p.sums.Others += k * s.Others
	p.samples += int(k)

	p.acc.Active += k * s.Active
	p.acc.Waiting += k * s.Waiting
	p.acc.Issued += k * s.Issued
	p.acc.XALU += k * s.XALU
	p.acc.XMEM += k * s.XMEM
	p.accN += int(k)
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

// MeanCounts returns the mean per-sample, per-SM warp counts in each state.
func (p *Monitor) MeanCounts(numSMs int) (active, waiting, xalu, xmem float64) {
	if p.samples == 0 {
		return 0, 0, 0, 0
	}
	n := float64(p.samples * numSMs)
	return float64(p.sums.Active) / n, float64(p.sums.Waiting) / n,
		float64(p.sums.XALU) / n, float64(p.sums.XMEM) / n
}

// Series returns the per-epoch time series.
func (p *Monitor) Series() []EpochPoint { return p.series }
