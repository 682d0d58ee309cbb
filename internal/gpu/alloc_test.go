package gpu_test

import (
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/invariant"
	"equalizer/internal/kernels"
	"equalizer/internal/policy"
	"equalizer/internal/power"
)

// allocBudgetPerRun pins the steady-state allocation cost of re-running a
// kernel invocation on a warm machine. The hot loops (sm.SM.Step, the memory
// partition drain) must not allocate per cycle, and after the calendar
// rebase, in-place warp-stream init and pool-preserving resets nothing
// per-block allocates either: a warm run measures single digits, and the
// budget's headroom covers only allocator noise. Raise it only with a
// profile in hand showing the new allocations are per-run, not per-cycle.
const allocBudgetPerRun = 64

// TestSteadyStateRunAllocations is the hot-loop allocation pin, in the
// spirit of telemetry's TestDisabledEmitIsAllocationFree: before the waiter
// pools and the hoisted drain callbacks, a run this size allocated ~5x the
// budget, dominated by per-miss outbox pointers and waiter-slice appends.
// The bitset masks and calendar queues must stay allocation-free per cycle.
// The policy rows cover what cutcp alone does not reach: lbm under Equalizer
// drives DRAM, the interconnect, L2 waiters and VF changes, and kmn under
// CCWS drives the memory-issue mask, the L1 listener and the policy's own
// rebalancing, which must run at least minCycles/64 times per run.
func TestSteadyStateRunAllocations(t *testing.T) {
	if invariant.Enabled {
		t.Skip("eqdebug invariant checks box Checkf arguments; the allocation budget pins release builds")
	}
	for _, tc := range []struct {
		name      string
		kernel    string
		grid      int
		minCycles int64
		policy    func() gpu.Policy
	}{
		{name: "fast", kernel: "cutcp", grid: 30},
		{name: "lbm-equalizer", kernel: "lbm", policy: func() gpu.Policy { return core.New(core.PerformanceMode) }},
		{name: "kmn-ccws", kernel: "kmn", grid: 30, minCycles: 100 * 64,
			policy: func() gpu.Policy { return policy.NewCCWS() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := kernels.ByName(tc.kernel)
			if err != nil {
				t.Fatal(err)
			}
			if tc.grid > 0 {
				k.GridBlocks = tc.grid
			}
			var p gpu.Policy
			if tc.policy != nil {
				p = tc.policy()
			}
			m, err := gpu.New(config.Default(), power.Default(), p)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: first run grows the pools, wake queues and stat buffers.
			res, err := m.RunKernel(k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.SMCycles < tc.minCycles {
				t.Fatalf("run lasts %d SM cycles, want at least %d", res.SMCycles, tc.minCycles)
			}
			n := testing.AllocsPerRun(3, func() {
				if _, err := m.RunKernel(k, 0); err != nil {
					t.Fatal(err)
				}
			})
			if n > allocBudgetPerRun {
				t.Errorf("steady-state RunKernel allocates %.0f per run, budget %d", n, allocBudgetPerRun)
			}
		})
	}
}
