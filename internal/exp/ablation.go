package exp

import (
	"context"
	"fmt"
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/metrics"
)

// AblationPoint is one parameter setting's aggregate result over the
// ablation kernel set.
type AblationPoint struct {
	// Label names the setting (e.g. "epoch=2048").
	Label string
	// Speedup is the geomean performance-mode speedup vs baseline.
	Speedup float64
	// EnergyDelta is the mean energy change vs baseline.
	EnergyDelta float64
}

// ablationKernels is a representative set: one kernel per category plus the
// two phase-changing kernels, keeping sweeps affordable.
func ablationKernels() []kernels.Kernel {
	names := []string{"cutcp", "lbm", "kmn", "sc", "spmv", "bfs-2"}
	var ks []kernels.Kernel
	for _, n := range names {
		k, err := kernels.ByName(n)
		if err != nil {
			panic(err)
		}
		ks = append(ks, k)
	}
	return ks
}

// runAblationPoint runs the ablation set under an Equalizer built with the
// given runtime parameters and returns geomean speedup / mean energy delta
// vs the stock baseline.
func (h *Harness) runAblationPoint(label string, eqCfg config.Equalizer, mode core.Mode) (AblationPoint, error) {
	var speedups, deltas []float64
	for _, k := range ablationKernels() {
		base, err := h.Run(k, Baseline())
		if err != nil {
			return AblationPoint{}, err
		}
		m, err := gpu.New(h.gpuCfg, h.pwrCfg, NewPolicy(EqualizerSetup(mode), eqCfg))
		if err != nil {
			return AblationPoint{}, err
		}
		t, err := Simulate(context.Background(), m, h.scaled(k), nil)
		if err != nil {
			return AblationPoint{}, err
		}
		speedups = append(speedups, t.Speedup(base))
		deltas = append(deltas, t.EnergyDelta(base))
	}
	return AblationPoint{
		Label:       label,
		Speedup:     metrics.Geomean(speedups),
		EnergyDelta: metrics.Mean(deltas),
	}, nil
}

// AblationEpoch sweeps the epoch window length (the paper chose 4096 cycles
// after a sensitivity study, Section V-A.2).
func (h *Harness) AblationEpoch(mode core.Mode) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, epoch := range []int{1024, 2048, 4096, 8192, 16384} {
		cfg := config.DefaultEqualizer()
		cfg.EpochCycles = epoch //eqlint:allow cycleaccounting -- writes the epoch-length config knob, not a live counter
		p, err := h.runAblationPoint(fmt.Sprintf("epoch=%d", epoch), cfg, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// AblationHysteresis sweeps the consecutive-decision requirement for block
// changes (the paper uses 3).
func (h *Harness) AblationHysteresis(mode core.Mode) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, hys := range []int{1, 2, 3, 4, 6} {
		cfg := config.DefaultEqualizer()
		cfg.Hysteresis = hys
		p, err := h.runAblationPoint(fmt.Sprintf("hysteresis=%d", hys), cfg, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// AblationSampling sweeps the instruction-buffer sampling interval (the
// paper samples every 128 cycles).
func (h *Harness) AblationSampling(mode core.Mode) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, s := range []int{32, 64, 128, 256, 512} {
		cfg := config.DefaultEqualizer()
		cfg.SampleInterval = s
		p, err := h.runAblationPoint(fmt.Sprintf("sample=%d", s), cfg, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// AblationMemSaturation sweeps the Xmem bandwidth-saturation floor (the
// paper conservatively uses 2 warps, Section III-A).
func (h *Harness) AblationMemSaturation(mode core.Mode) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, floor := range []int{0, 1, 2, 4, 8} {
		cfg := config.DefaultEqualizer()
		cfg.MemSaturationWarps = floor
		p, err := h.runAblationPoint(fmt.Sprintf("memsat=%d", floor), cfg, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Ablations runs every sweep in performance mode and renders them.
func (h *Harness) Ablations() (string, error) {
	var b strings.Builder
	sweeps := []struct {
		title string
		run   func(core.Mode) ([]AblationPoint, error)
	}{
		{"epoch window length", h.AblationEpoch},
		{"block-change hysteresis", h.AblationHysteresis},
		{"sampling interval", h.AblationSampling},
		{"Xmem saturation floor", h.AblationMemSaturation},
	}
	for _, sweep := range sweeps {
		pts, err := sweep.run(core.PerformanceMode)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Ablation: %s (performance mode, %d-kernel subset)\n", sweep.title, len(ablationKernels()))
		t := metrics.NewTable("setting", "geomean speedup", "mean energy delta")
		for _, p := range pts {
			t.AddRowf(p.Label, p.Speedup, metrics.Pct(p.EnergyDelta))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}
