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
	speedup, err := metrics.GeomeanErr(speedups)
	if err != nil {
		return AblationPoint{}, fmt.Errorf("exp: ablation %s: %w", label, err)
	}
	return AblationPoint{
		Label:       label,
		Speedup:     speedup,
		EnergyDelta: metrics.Mean(deltas),
	}, nil
}

// ablationSweep is one Equalizer parameter swept over the ablation kernel
// set: each value is written into a default config by set and labelled
// "<prefix>=<value>".
type ablationSweep struct {
	title  string
	prefix string
	values []int
	set    func(cfg *config.Equalizer, v int)
}

// ablationSweeps lists the sweeps Ablations renders, in order. It is a
// function rather than a package variable so that eqlint's cycleaccounting,
// which inspects function bodies, sees the EpochCycles write its allow
// names.
func ablationSweeps() []ablationSweep {
	return []ablationSweep{
		// The paper chose 4096 cycles after a sensitivity study (Section V-A.2).
		{"epoch window length", "epoch", []int{1024, 2048, 4096, 8192, 16384}, func(cfg *config.Equalizer, v int) {
			cfg.EpochCycles = v //eqlint:allow cycleaccounting -- writes the epoch-length config knob, not a live counter
		}},
		// Consecutive decisions required for a block change (the paper uses 3).
		{"block-change hysteresis", "hysteresis", []int{1, 2, 3, 4, 6}, func(cfg *config.Equalizer, v int) {
			cfg.Hysteresis = v
		}},
		// Instruction-buffer sampling interval (the paper samples every 128 cycles).
		{"sampling interval", "sample", []int{32, 64, 128, 256, 512}, func(cfg *config.Equalizer, v int) {
			cfg.SampleInterval = v
		}},
		// Xmem bandwidth-saturation floor (the paper uses 2 warps, Section III-A).
		{"Xmem saturation floor", "memsat", []int{0, 1, 2, 4, 8}, func(cfg *config.Equalizer, v int) {
			cfg.MemSaturationWarps = v
		}},
	}
}

// sweep runs one ablation point per value of s under the given mode.
func (h *Harness) sweep(s ablationSweep, mode core.Mode) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, v := range s.values {
		cfg := config.DefaultEqualizer()
		s.set(&cfg, v)
		p, err := h.runAblationPoint(fmt.Sprintf("%s=%d", s.prefix, v), cfg, mode)
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
	for _, s := range ablationSweeps() {
		pts, err := h.sweep(s, core.PerformanceMode)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Ablation: %s (performance mode, %d-kernel subset)\n", s.title, len(ablationKernels()))
		t := metrics.NewTable("setting", "geomean speedup", "mean energy delta")
		for _, p := range pts {
			t.AddRowf(p.Label, p.Speedup, metrics.Pct(p.EnergyDelta))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}
