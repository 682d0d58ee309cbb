// Package policy provides the non-Equalizer runtime policies used in the
// paper's evaluation: fixed operating points (static block counts), the
// DynCTA heuristic of Kayiran et al. [15], the cache-conscious wavefront
// scheduling (CCWS) of Rogers et al. [26], and the GPU-Boost-style power
// controller of the boost extension study. The warp-state census of the
// characterisation figures is sampled by the machine (gpu.Result.Census),
// not by a policy.
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

// Monitor is a passive policy that never acts; the machine samples the
// warp-state census itself (gpu.Result.Census). Monitor remains because the
// repository benchmark's core.sample_ns_per_cycle probe (bench/peel.go)
// builds it, to time a machine with a policy against one without: the cost
// of a no-op policy call per SM cycle.
type Monitor struct{}

var _ gpu.Policy = (*Monitor)(nil)

// NewMonitor builds the no-op monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// Name implements gpu.Policy.
func (p *Monitor) Name() string { return "monitor" }

// Reset implements gpu.Policy.
func (p *Monitor) Reset(*gpu.Machine, kernels.Kernel) {}

// OnSMCycle implements gpu.Policy.
func (p *Monitor) OnSMCycle(*gpu.Machine, clock.Time, int64) {}
