package gpu_test

import (
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/policy"
	"equalizer/internal/power"
)

// runEngineCycles runs every invocation of k on a fresh machine and returns
// the engine path counters next to the SM cycles the results reported.
func runEngineCycles(t *testing.T, k kernels.Kernel, pol gpu.Policy, fastForward bool) (stepped, fastFwd uint64, smCycles int64) {
	t.Helper()
	m := gpu.MustNew(config.Default(), power.Default(), pol)
	m.SetFastForward(fastForward)
	for inv := 0; inv < k.Invocations; inv++ {
		res, err := m.RunKernel(k, inv)
		if err != nil {
			t.Fatal(err)
		}
		smCycles += res.SMCycles
	}
	stepped, fastFwd, _ = m.EngineCycles()
	return stepped, fastFwd, smCycles
}

// TestEngineCyclesConserved pins the engine path counters to the results:
// every SM-domain machine cycle of every invocation is either stepped or
// fast-forwarded, exactly once, whatever the policy; the legacy loop steps
// them all.
func TestEngineCyclesConserved(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the full kernel registry under three policies")
	}
	policies := []struct {
		name string
		mk   func() gpu.Policy
	}{
		{"nil", func() gpu.Policy { return nil }},
		{"monitor", func() gpu.Policy { return policy.NewMonitor() }},
		{"equalizer", func() gpu.Policy { return core.New(core.EnergyMode) }},
	}
	for _, k := range kernels.All() {
		k := k.WithGridScale(0.1, 15)
		if k.Invocations > 3 {
			k.Invocations = 3
		}
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range policies {
				stepped, ff, cycles := runEngineCycles(t, k, p.mk(), true)
				if int64(stepped+ff) != cycles {
					t.Errorf("%s fast: stepped %d + fast_forward %d != SMCycles %d", p.name, stepped, ff, cycles)
				}
				if p.name != "equalizer" {
					continue
				}
				// Unmanaged lbm keeps DRAM saturated, so some SM always has
				// work and the machine never quiesces; Equalizer's CTA
				// pausing opens machine-wide quiet spans.
				if k.Name == "lbm" && ff == 0 {
					t.Error("equalizer fast: lbm fast-forwarded nothing")
				}
				// The legacy loop reaches the same total, every cycle stepped.
				lstepped, lff, lcycles := runEngineCycles(t, k, p.mk(), false)
				if lff != 0 || int64(lstepped) != lcycles || lcycles != cycles {
					t.Errorf("equalizer legacy: stepped %d, fast_forward %d, SMCycles %d; want fast_forward 0 and stepped == SMCycles == %d",
						lstepped, lff, lcycles, cycles)
				}
			}
		})
	}
}
