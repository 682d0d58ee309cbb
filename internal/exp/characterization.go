package exp

import (
	"fmt"
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/metrics"
)

// Table1 renders Table I: the action matrix of the Equalizer runtime.
func (h *Harness) Table1() string {
	t := metrics.NewTable("kernel type", "objective", "SM freq", "DRAM freq", "num blocks")
	for _, r := range core.ActionTable() {
		t.AddRow(r.Kernel, r.Objective, r.SMFreq, r.DRAMFreq, r.Blocks)
	}
	return "Table I: actions on each parameter per kernel type and objective\n" + t.String()
}

// Table2 renders Table II: the benchmark registry.
func (h *Harness) Table2() string {
	t := metrics.NewTable("application", "kernel", "type", "fraction", "num blocks", "Wcta", "invocations")
	for _, k := range kernels.All() {
		t.AddRowf(k.App, k.Name, k.Category.String(), fmt.Sprintf("%.2f", k.Fraction),
			k.BlocksPerSM, k.Wcta, k.Invocations)
	}
	return "Table II: benchmark description\n" + t.String()
}

// Table3 renders Table III: the simulated machine parameters.
func (h *Harness) Table3() string {
	g := h.gpuCfg
	t := metrics.NewTable("parameter", "value")
	t.AddRow("Architecture", fmt.Sprintf("Fermi-style (%d SMs, %d PE/SM)", g.NumSMs, g.PEsPerSM))
	t.AddRow("Max Thread Blocks:Warps", fmt.Sprintf("%d:%d", g.MaxBlocksPerSM, g.MaxWarpsPerSM))
	t.AddRow("Data Cache", fmt.Sprintf("%d Sets, %d Way, %d B/Line", g.L1.Sets, g.L1.Ways, g.L1.LineBytes))
	t.AddRow("L2 Cache", fmt.Sprintf("%d Sets, %d Way, %d B/Line", g.L2.Sets, g.L2.Ways, g.L2.LineBytes))
	t.AddRow("SM V/F Modulation", fmt.Sprintf("±%.0f%%, on-chip regulator (%d cycles)", g.Modulation*100, g.VRMTransitionCycles))
	t.AddRow("Memory V/F Modulation", fmt.Sprintf("±%.0f%%", g.Modulation*100))
	t.AddRow("Equalizer epoch", fmt.Sprintf("%d cycles, sample every %d", config.DefaultEqualizer().EpochCycles, config.DefaultEqualizer().SampleInterval))
	return "Table III: simulation parameters\n" + t.String()
}

// Fig1Point is one kernel under one static configuration.
type Fig1Point struct {
	Kernel     string
	Category   kernels.Category
	Speedup    float64
	Efficiency float64
}

// Fig1Data holds every panel of Figure 1.
type Fig1Data struct {
	SMHigh, SMLow   []Fig1Point // panels (a) and (b)
	MemHigh, MemLow []Fig1Point // panels (c) and (d)
	// BestBlocks maps each kernel to the best static block count relative
	// to the maximum (panel e), and OptBlocks holds the speedup/efficiency
	// of running that count (panel f).
	BestBlocks []Fig1Blocks
	OptBlocks  []Fig1Point
}

// Fig1Blocks is one kernel's panel-(e) entry.
type Fig1Blocks struct {
	Kernel    string
	Category  kernels.Category
	Best, Max int
	Speedup   float64
}

// Figure1 measures the impact of varying SM frequency, memory frequency and
// thread-block count on every kernel (paper Figure 1).
func (h *Harness) Figure1() (Fig1Data, error) {
	var grid []RunRequest
	for _, k := range kernels.All() {
		for _, s := range []Setup{
			Baseline(),
			StaticVF(config.VFHigh, config.VFNormal),
			StaticVF(config.VFLow, config.VFNormal),
			StaticVF(config.VFNormal, config.VFHigh),
			StaticVF(config.VFNormal, config.VFLow),
		} {
			grid = append(grid, RunRequest{Kernel: k, Setup: s})
		}
	}
	h.Prefetch(grid)
	var d Fig1Data
	for _, k := range kernels.All() {
		base, err := h.Run(k, Baseline())
		if err != nil {
			return d, err
		}
		point := func(s Setup) (Fig1Point, error) {
			t, err := h.Run(k, s)
			if err != nil {
				return Fig1Point{}, err
			}
			return Fig1Point{
				Kernel:     k.Name,
				Category:   k.Category,
				Speedup:    t.Speedup(base),
				Efficiency: t.Efficiency(base),
			}, nil
		}
		p, err := point(StaticVF(config.VFHigh, config.VFNormal))
		if err != nil {
			return d, err
		}
		d.SMHigh = append(d.SMHigh, p)
		if p, err = point(StaticVF(config.VFLow, config.VFNormal)); err != nil {
			return d, err
		}
		d.SMLow = append(d.SMLow, p)
		if p, err = point(StaticVF(config.VFNormal, config.VFHigh)); err != nil {
			return d, err
		}
		d.MemHigh = append(d.MemHigh, p)
		if p, err = point(StaticVF(config.VFNormal, config.VFLow)); err != nil {
			return d, err
		}
		d.MemLow = append(d.MemLow, p)

		best, bestT := h.BestStaticBlocks(k)
		d.BestBlocks = append(d.BestBlocks, Fig1Blocks{
			Kernel:   k.Name,
			Category: k.Category,
			Best:     best,
			Max:      k.MaxResidentBlocks(h.gpuCfg.MaxWarpsPerSM),
			Speedup:  bestT.Speedup(base),
		})
		d.OptBlocks = append(d.OptBlocks, Fig1Point{
			Kernel:     k.Name,
			Category:   k.Category,
			Speedup:    bestT.Speedup(base),
			Efficiency: bestT.Efficiency(base),
		})
	}
	return d, nil
}

// RenderFigure1 formats the Figure 1 panels as text tables.
func RenderFigure1(d Fig1Data) string {
	var b strings.Builder
	panel := func(title string, pts []Fig1Point) {
		fmt.Fprintf(&b, "Figure 1%s\n", title)
		t := metrics.NewTable("kernel", "category", "speedup", "energy-eff")
		for _, p := range pts {
			t.AddRowf(p.Kernel, p.Category.String(), p.Speedup, p.Efficiency)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	panel("a: SM frequency +15%", d.SMHigh)
	panel("b: SM frequency -15%", d.SMLow)
	panel("c: DRAM frequency +15%", d.MemHigh)
	panel("d: DRAM frequency -15%", d.MemLow)
	fmt.Fprintf(&b, "Figure 1e: best static thread-block count\n")
	t := metrics.NewTable("kernel", "category", "best blocks", "max blocks", "speedup")
	for _, p := range d.BestBlocks {
		t.AddRowf(p.Kernel, p.Category.String(), p.Best, p.Max, p.Speedup)
	}
	b.WriteString(t.String())
	b.WriteString("\n")
	panel("f: statically optimal block count", d.OptBlocks)
	return b.String()
}

// Fig2aData holds the per-invocation execution-time distribution of bfs-2
// under fixed block counts plus the per-invocation optimum (paper Figure 2a).
type Fig2aData struct {
	// InvocationPS[config][inv] is the wall time of each invocation;
	// configs are 1, 2, 3 blocks and "Opt".
	Blocks1, Blocks2, Blocks3, Opt []int64
}

// TotalPS sums one configuration's invocations.
func TotalPS(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// Figure2a reproduces the bfs-2 inter-invocation study.
func (h *Harness) Figure2a() (Fig2aData, error) {
	k, err := kernels.ByName("bfs-2")
	if err != nil {
		return Fig2aData{}, err
	}
	h.Prefetch([]RunRequest{
		{Kernel: k, Setup: StaticBlocks(1)},
		{Kernel: k, Setup: StaticBlocks(2)},
		{Kernel: k, Setup: StaticBlocks(3)},
	})
	var d Fig2aData
	runs := []struct {
		blocks int
		dst    *[]int64
	}{{1, &d.Blocks1}, {2, &d.Blocks2}, {3, &d.Blocks3}}
	for _, r := range runs {
		t, err := h.Run(k, StaticBlocks(r.blocks))
		if err != nil {
			return d, err
		}
		*r.dst = t.PerInvocationPS
	}
	// Opt picks the best configuration per invocation.
	for inv := range d.Blocks1 {
		best := d.Blocks1[inv]
		if d.Blocks2[inv] < best {
			best = d.Blocks2[inv]
		}
		if d.Blocks3[inv] < best {
			best = d.Blocks3[inv]
		}
		d.Opt = append(d.Opt, best)
	}
	return d, nil
}

// RenderFigure2a formats the bfs-2 study, normalised to the 3-block total as
// in the paper.
func RenderFigure2a(d Fig2aData) string {
	var b strings.Builder
	b.WriteString("Figure 2a: bfs-2 execution time per invocation (normalised to 3-block total)\n")
	norm := float64(TotalPS(d.Blocks3))
	t := metrics.NewTable("invocation", "1 block", "2 blocks", "3 blocks", "opt")
	for inv := range d.Blocks1 {
		t.AddRowf(inv+1,
			float64(d.Blocks1[inv])/norm,
			float64(d.Blocks2[inv])/norm,
			float64(d.Blocks3[inv])/norm,
			float64(d.Opt[inv])/norm)
	}
	t.AddRowf("total",
		float64(TotalPS(d.Blocks1))/norm,
		float64(TotalPS(d.Blocks2))/norm,
		float64(TotalPS(d.Blocks3))/norm,
		float64(TotalPS(d.Opt))/norm)
	b.WriteString(t.String())
	imp := 1 - float64(TotalPS(d.Opt))/norm
	fmt.Fprintf(&b, "per-invocation optimal saves %s vs 3 blocks\n", metrics.Pct(imp))
	return b.String()
}

// Figure2b records the warp-state time series of mri_g-1 (paper Figure 2b):
// waiting warps vs excess-memory vs excess-compute warps over the run. It
// reads the census of mri_g-1's baseline cell, whose one invocation is the
// whole run.
func (h *Harness) Figure2b() ([]gpu.EpochPoint, error) {
	k, err := kernels.ByName("mri_g-1")
	if err != nil {
		return nil, err
	}
	t, err := h.Run(k, Baseline())
	if err != nil {
		return nil, err
	}
	return t.Census[0].Series, nil
}

// RenderSeries formats an epoch census series.
func RenderSeries(title string, pts []gpu.EpochPoint) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	t := metrics.NewTable("epoch", "active", "waiting", "xmem", "xalu")
	for _, p := range pts {
		t.AddRowf(p.Epoch, p.Active, p.Waiting, p.XMEM, p.XALU)
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig4Row is one kernel's warp-state distribution (paper Figure 4).
type Fig4Row struct {
	Kernel   string
	Category kernels.Category
	// Fractions of accounted warp-state observations.
	Waiting, Issued, XALU, XMEM float64
}

// Figure4 measures the state of warps for all kernels at maximum threads.
// It reads invocation 0 of each kernel's baseline cell, the cells Figure 7
// also runs. That is the first invocation, not the dominant one: at full
// scale bfs-2's invocation 0 takes 21 µs, against 149 µs for each of its
// invocations 7-9.
func (h *Harness) Figure4() ([]Fig4Row, error) {
	var grid []RunRequest
	for _, k := range kernels.All() {
		grid = append(grid, RunRequest{Kernel: k, Setup: Baseline()})
	}
	h.Prefetch(grid)
	var rows []Fig4Row
	for _, k := range kernels.All() {
		t, err := h.Run(k, Baseline())
		if err != nil {
			return nil, err
		}
		w, i, xa, xm := t.Census[0].Distribution()
		rows = append(rows, Fig4Row{
			Kernel: k.Name, Category: k.Category,
			Waiting: w, Issued: i, XALU: xa, XMEM: xm,
		})
	}
	return rows, nil
}

// RenderFigure4 formats the warp-state distribution.
func RenderFigure4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4: state of warps per kernel (fraction of observations)\n")
	t := metrics.NewTable("kernel", "category", "waiting", "issued", "excess ALU", "excess mem", "xalu|xmem")
	for _, r := range rows {
		t.AddRowf(r.Kernel, r.Category.String(), r.Waiting, r.Issued, r.XALU, r.XMEM,
			metrics.Bar(r.XALU, 10)+"|"+metrics.Bar(r.XMEM, 10))
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig5Row is one memory kernel's block sweep (paper Figure 5).
type Fig5Row struct {
	Kernel string
	// Speedup[i] is performance with i+1 blocks relative to 1 block.
	Speedup []float64
}

// Figure5 sweeps the thread-block count for the memory-intensive kernels.
func (h *Harness) Figure5() ([]Fig5Row, error) {
	var grid []RunRequest
	for _, k := range kernels.ByCategory(kernels.Memory) {
		for b := 1; b <= k.MaxResidentBlocks(h.gpuCfg.MaxWarpsPerSM); b++ {
			grid = append(grid, RunRequest{Kernel: k, Setup: StaticBlocks(b)})
		}
	}
	h.Prefetch(grid)
	var rows []Fig5Row
	for _, k := range kernels.ByCategory(kernels.Memory) {
		maxBlocks := k.MaxResidentBlocks(h.gpuCfg.MaxWarpsPerSM)
		one, err := h.Run(k, StaticBlocks(1))
		if err != nil {
			return nil, err
		}
		row := Fig5Row{Kernel: k.Name}
		for b := 1; b <= maxBlocks; b++ {
			t, err := h.Run(k, StaticBlocks(b))
			if err != nil {
				return nil, err
			}
			row.Speedup = append(row.Speedup, t.Speedup(one))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure5 formats the memory-kernel block sweep.
func RenderFigure5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Figure 5: memory-kernel performance vs concurrent thread blocks (vs 1 block)\n")
	maxLen := 0
	for _, r := range rows {
		if len(r.Speedup) > maxLen {
			maxLen = len(r.Speedup)
		}
	}
	header := []string{"kernel"}
	for i := 1; i <= maxLen; i++ {
		header = append(header, fmt.Sprintf("%db", i))
	}
	t := metrics.NewTable(header...)
	for _, r := range rows {
		cells := []interface{}{r.Kernel}
		for _, s := range r.Speedup {
			cells = append(cells, s)
		}
		t.AddRowf(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}
