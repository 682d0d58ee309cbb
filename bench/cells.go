package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/metrics"
	"equalizer/internal/power"
	"equalizer/internal/service"
	"equalizer/internal/telemetry"
)

// cell is one (kernel, setup) simulation: the unit every workload is built
// from. Index is its position in the workload's canonical (declaration)
// order, which is also the order exact sums are taken in.
type cell struct {
	Index  int
	Kernel kernels.Kernel
	Setup  exp.Setup
}

func (c cell) String() string { return c.Kernel.Name + "/" + c.Setup.Policy }

// spec is the cell as an eqsimd request.
func (c cell) spec() service.RunSpec {
	return service.RunSpec{Kernel: c.Kernel.Name, Policy: c.Setup.Policy}
}

// setups are the three configurations every workload crosses its kernels
// with: the stock machine and Equalizer's two objectives.
func setups() []exp.Setup {
	return []exp.Setup{
		exp.Baseline(),
		exp.EqualizerSetup(core.EnergyMode),
		exp.EqualizerSetup(core.PerformanceMode),
	}
}

// buildCells crosses the named kernels (nil = the whole registry) with
// setups(), kernel-major.
func buildCells(names []string) ([]cell, error) {
	var ks []kernels.Kernel
	if names == nil {
		ks = kernels.All()
	}
	for _, n := range names {
		k, err := kernels.ByName(n)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	var out []cell
	for _, k := range ks {
		for _, s := range setups() {
			out = append(out, cell{Index: len(out), Kernel: k, Setup: s})
		}
	}
	return out, nil
}

// digest is the identity of a result: sha256 of the Totals' JSON. Go's JSON
// float encoding round-trips exactly, so a Totals decoded from an HTTP body
// and re-encoded hashes the same as the original.
func digest(t exp.Totals) string {
	b, err := json.Marshal(t)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal totals: %v", err)) // flat struct of numbers cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// bareOpts vary a bare-machine run for the peeling probes.
type bareOpts struct {
	// policy, when non-nil, replaces the cell's own policy.
	policy gpu.Policy
	// bus, when non-nil, is attached to the machine before the run.
	bus *telemetry.Bus
	// collect, when non-nil, receives Machine.Collect after the last
	// invocation.
	collect *telemetry.Registry
	// steadyAllocs additionally re-runs invocation 0 on the warmed machine
	// and records the heap allocations of that run.
	steadyAllocs bool
}

// bareResult is what a bare-machine run yields.
type bareResult struct {
	Totals exp.Totals
	Wall   time.Duration
	// Allocs and AllocBytes are the steady-state re-run's heap traffic
	// (only with bareOpts.steadyAllocs).
	Allocs, AllocBytes uint64
}

// policyFor builds the gpu.Policy a setup names; nil is the untuned machine.
func policyFor(s exp.Setup) gpu.Policy {
	switch s.Policy {
	case "equalizer-energy":
		return core.New(core.EnergyMode)
	case "equalizer-perf":
		return core.New(core.PerformanceMode)
	}
	return nil
}

// runBare simulates the cell on a bare sequential gpu.Machine — no harness,
// no cache, no worker pool — aggregating invocations exactly as the harness
// does, so its Totals must be byte-identical to every other boundary's. It
// is the benchmark's independent reference and the floor every layer above
// is peeled against.
func runBare(c cell, scale float64, o bareOpts) (bareResult, error) {
	cfg := config.Default()
	k := c.Kernel
	if scale != 1.0 {
		k = k.WithGridScale(scale, cfg.NumSMs)
	}
	pol := policyFor(c.Setup)
	if o.policy != nil {
		pol = o.policy
	}
	start := time.Now()
	m, err := gpu.New(cfg, power.Default(), pol)
	if err != nil {
		return bareResult{}, err
	}
	if o.bus != nil {
		m.AttachTelemetry(o.bus)
	}
	m.SetLevelsImmediate(c.Setup.SM, c.Setup.Mem)
	var t exp.Totals
	var l1Weighted, dramWeighted float64
	for inv := 0; inv < k.Invocations; inv++ {
		res, err := m.RunKernel(k, inv)
		if err != nil {
			return bareResult{}, err
		}
		t.TimePS += res.TimePS
		t.EnergyJ += res.EnergyJ()
		t.SMCycles += res.SMCycles
		l1Weighted += res.L1HitRate * float64(res.SMCycles)
		dramWeighted += res.DRAMUtil * float64(res.SMCycles)
		for i := 0; i < 3; i++ {
			t.Residency.SM[i] += res.Residency.SM[i]
			t.Residency.Mem[i] += res.Residency.Mem[i]
		}
		t.PerInvocationPS = append(t.PerInvocationPS, res.TimePS)
	}
	if t.SMCycles > 0 {
		t.L1Hit = l1Weighted / float64(t.SMCycles)
		t.DRAMUtil = dramWeighted / float64(t.SMCycles)
	}
	out := bareResult{Totals: t, Wall: time.Since(start)}
	if o.collect != nil {
		m.Collect(o.collect)
	}
	if o.steadyAllocs {
		out.Allocs, out.AllocBytes, err = steadyAllocs(m, k)
	}
	return out, err
}

// paperGapPP is the mean absolute distance, in percentage points, of the four
// headline numbers from the paper's (performance mode 1.22x at +6 % energy;
// energy mode 15 % savings at 1.05x), over whatever kernels the cells cover.
// totals is indexed like cells. Only over the whole registry is the figure a
// comparison with the paper; over a subset it is the same formula serving as
// an exact fingerprint of the model.
func paperGapPP(cells []cell, totals []exp.Totals) (float64, error) {
	var perfSpeed, perfEnergy, energySave, energySpeed []float64
	for i := 0; i+2 < len(cells); i += 3 {
		base, energy, perf := totals[i], totals[i+1], totals[i+2]
		perfSpeed = append(perfSpeed, perf.Speedup(base))
		perfEnergy = append(perfEnergy, perf.EnergyDelta(base))
		energySave = append(energySave, energy.EnergySavings(base))
		energySpeed = append(energySpeed, energy.Speedup(base))
	}
	ps, err := metrics.GeomeanErr(perfSpeed)
	if err != nil {
		return 0, fmt.Errorf("performance-mode speed-ups: %w", err)
	}
	es, err := metrics.GeomeanErr(energySpeed)
	if err != nil {
		return 0, fmt.Errorf("energy-mode speed-ups: %w", err)
	}
	got := [4]float64{ps * 100, metrics.Mean(perfEnergy) * 100, metrics.Mean(energySave) * 100, es * 100}
	want := [4]float64{122, 6, 15, 105}
	var gap float64
	for i := range got {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		gap += d
	}
	return gap / 4, nil
}
