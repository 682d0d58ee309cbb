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
	ks := kernels.All()
	t, err := h.Prefetch(kernelGrid(ks,
		Baseline(),
		StaticVF(config.VFHigh, config.VFNormal),
		StaticVF(config.VFLow, config.VFNormal),
		StaticVF(config.VFNormal, config.VFHigh),
		StaticVF(config.VFNormal, config.VFLow)))
	if err != nil {
		return Fig1Data{}, err
	}
	var d Fig1Data
	for i, k := range ks {
		base := t[5*i]
		point := func(c Totals) Fig1Point {
			return Fig1Point{
				Kernel:     k.Name,
				Category:   k.Category,
				Speedup:    c.Speedup(base),
				Efficiency: c.Efficiency(base),
			}
		}
		d.SMHigh = append(d.SMHigh, point(t[5*i+1]))
		d.SMLow = append(d.SMLow, point(t[5*i+2]))
		d.MemHigh = append(d.MemHigh, point(t[5*i+3]))
		d.MemLow = append(d.MemLow, point(t[5*i+4]))

		best, bestT, err := h.BestStaticBlocks(k)
		if err != nil {
			return Fig1Data{}, err
		}
		d.BestBlocks = append(d.BestBlocks, Fig1Blocks{
			Kernel:   k.Name,
			Category: k.Category,
			Best:     best,
			Max:      k.MaxResidentBlocks(h.gpuCfg.MaxWarpsPerSM),
			Speedup:  bestT.Speedup(base),
		})
		d.OptBlocks = append(d.OptBlocks, point(bestT))
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

// fig2aSetups are Figure 2a's cells: bfs-2 under 1, 2 and 3 blocks.
func fig2aSetups() []Setup { return []Setup{StaticBlocks(1), StaticBlocks(2), StaticBlocks(3)} }

// Figure2a reproduces the bfs-2 inter-invocation study.
func (h *Harness) Figure2a() (Fig2aData, error) {
	k, err := kernels.ByName("bfs-2")
	if err != nil {
		return Fig2aData{}, err
	}
	t, err := h.Prefetch(kernelGrid([]kernels.Kernel{k}, fig2aSetups()...))
	if err != nil {
		return Fig2aData{}, err
	}
	return fig2aData(t), nil
}

// fig2aData builds Figure 2a from the totals of fig2aSetups, in order.
func fig2aData(t []Totals) Fig2aData {
	d := Fig2aData{Blocks1: t[0].PerInvocationPS, Blocks2: t[1].PerInvocationPS, Blocks3: t[2].PerInvocationPS}
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
	return d
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
	ks := kernels.All()
	t, err := h.Prefetch(kernelGrid(ks, Baseline()))
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for i, k := range ks {
		w, is, xa, xm := t[i].Census[0].Distribution()
		rows = append(rows, Fig4Row{
			Kernel: k.Name, Category: k.Category,
			Waiting: w, Issued: is, XALU: xa, XMEM: xm,
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
	ks := kernels.ByCategory(kernels.Memory)
	var grid []RunRequest
	for _, k := range ks {
		for b := 1; b <= k.MaxResidentBlocks(h.gpuCfg.MaxWarpsPerSM); b++ {
			grid = append(grid, RunRequest{Kernel: k, Setup: StaticBlocks(b)})
		}
	}
	t, err := h.Prefetch(grid)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, k := range ks {
		sweep := t[:k.MaxResidentBlocks(h.gpuCfg.MaxWarpsPerSM)]
		t = t[len(sweep):]
		row := Fig5Row{Kernel: k.Name}
		for _, tb := range sweep {
			row.Speedup = append(row.Speedup, tb.Speedup(sweep[0]))
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
