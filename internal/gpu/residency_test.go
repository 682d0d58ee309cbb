package gpu_test

import (
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
)

// TestResidencyTracksWallTime checks simulated-time conservation at
// invocation granularity: each domain's VF residency sums to the
// invocation's wall time to within two periods of that domain at its
// slowest level. The law is not exact here: a domain's residency accrues
// up to its last tick, TimePS runs to the SM domain's next cycle boundary,
// and the memory domain ticks on its own clock, so each sum trails or
// leads TimePS by up to a period or two. Every registry kernel runs, all
// invocations on one machine, with and without VF changes.
func TestResidencyTracksWallTime(t *testing.T) {
	cfg := config.Default()
	low := config.VFLow.Multiplier(cfg.Modulation)
	smSlack := 2 * int64(float64(cfg.SMClockPS)/low)
	memSlack := 2 * int64(float64(cfg.MemClockPS)/low)
	setups := []struct {
		name   string
		policy func() gpu.Policy
		lowVF  bool
	}{
		{name: "baseline", policy: func() gpu.Policy { return nil }},
		{name: "equalizer-perf", policy: func() gpu.Policy { return core.New(core.PerformanceMode) }},
		{name: "equalizer-energy", policy: func() gpu.Policy { return core.New(core.EnergyMode) }},
		{name: "baseline-low", policy: func() gpu.Policy { return nil }, lowVF: true},
	}
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for _, k := range kernels.All() {
				m, err := gpu.New(cfg, power.Default(), s.policy())
				if err != nil {
					t.Fatal(err)
				}
				if s.lowVF {
					m.SetLevelsImmediate(config.VFLow, config.VFLow)
				}
				k = k.WithGridScale(0.1, cfg.NumSMs)
				for inv := 0; inv < k.Invocations; inv++ {
					r, err := m.RunKernel(k, inv)
					if err != nil {
						t.Fatalf("%s inv %d: %v", k.Name, inv, err)
					}
					var sm, mem int64
					for i := range r.Residency.SM {
						sm += r.Residency.SM[i]
						mem += r.Residency.Mem[i]
					}
					if d := r.TimePS - sm; d < -smSlack || d > smSlack {
						t.Errorf("%s inv %d: TimePS %d - SM residency %d = %d ps, want within ±%d",
							k.Name, inv, r.TimePS, sm, d, smSlack)
					}
					if d := r.TimePS - mem; d < -memSlack || d > memSlack {
						t.Errorf("%s inv %d: TimePS %d - mem residency %d = %d ps, want within ±%d",
							k.Name, inv, r.TimePS, mem, d, memSlack)
					}
				}
			}
		})
	}
}
