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

// Fig10Row is one cache-study kernel's speedups under the three concurrency
// controllers (paper Figure 10).
type Fig10Row struct {
	Kernel                    string
	DynCTA, CCWS, EqualizerPf float64
}

// Figure10 compares Equalizer's performance mode with DynCTA and CCWS on the
// cache-sensitive kernel set.
func (h *Harness) Figure10() ([]Fig10Row, error) {
	ks := kernels.CacheStudyKernels()
	t, err := h.Prefetch(kernelGrid(ks, Baseline(), DynCTA(), CCWS(), EqualizerSetup(core.PerformanceMode)))
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for i, k := range ks {
		base, dyn, ccws, eq := t[4*i], t[4*i+1], t[4*i+2], t[4*i+3]
		rows = append(rows, Fig10Row{
			Kernel:      k.Name,
			DynCTA:      dyn.Speedup(base),
			CCWS:        ccws.Speedup(base),
			EqualizerPf: eq.Speedup(base),
		})
	}
	return rows, nil
}

// RenderFigure10 formats the comparison.
func RenderFigure10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10: Equalizer vs DynCTA vs CCWS (cache-sensitive kernels)\n")
	t := metrics.NewTable("kernel", "dynCTA", "CCWS", "equalizer")
	var dyn, ccws, eq []float64
	for _, r := range rows {
		t.AddRowf(r.Kernel, r.DynCTA, r.CCWS, r.EqualizerPf)
		dyn = append(dyn, r.DynCTA)
		ccws = append(ccws, r.CCWS)
		eq = append(eq, r.EqualizerPf)
	}
	t.AddRow("GMEAN", gmeanCell(dyn), gmeanCell(ccws), gmeanCell(eq))
	b.WriteString(t.String())
	return b.String()
}

// gmeanCell formats a geomean table cell, degrading to "n/a" when a corrupt
// sample makes the aggregate meaningless.
func gmeanCell(xs []float64) string {
	g, err := metrics.GeomeanErr(xs)
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", g)
}

// Fig11aData extends the Figure 2a study with Equalizer's block control
// (frequency control disabled, as in the paper's isolation experiment).
type Fig11aData struct {
	Fig2aData
	Equalizer []int64
}

// blocksOnly is the performance-mode Equalizer with frequency control off,
// the cell of Figures 11a and 11b and of `eqsim -policy equalizer-perf -set
// disablefrequency=1`.
func blocksOnly() Setup {
	cfg := config.DefaultEqualizer()
	cfg.DisableFrequency = true
	return EqualizerSetup(core.PerformanceMode).WithEqualizer(cfg)
}

// Figure11a reproduces the bfs-2 adaptivity study: Figure 2a's cells plus
// the blocks-only Equalizer.
func (h *Harness) Figure11a() (Fig11aData, error) {
	k, err := kernels.ByName("bfs-2")
	if err != nil {
		return Fig11aData{}, err
	}
	t, err := h.Prefetch(kernelGrid([]kernels.Kernel{k}, append(fig2aSetups(), blocksOnly())...))
	if err != nil {
		return Fig11aData{}, err
	}
	return Fig11aData{Fig2aData: fig2aData(t), Equalizer: t[3].PerInvocationPS}, nil
}

// RenderFigure11a formats the adaptivity study.
func RenderFigure11a(d Fig11aData) string {
	var b strings.Builder
	b.WriteString("Figure 11a: bfs-2 per-invocation time, Equalizer vs static blocks (normalised to 3-block total)\n")
	norm := float64(TotalPS(d.Blocks3))
	t := metrics.NewTable("invocation", "1 block", "3 blocks", "opt", "equalizer")
	for inv := range d.Blocks1 {
		t.AddRowf(inv+1,
			float64(d.Blocks1[inv])/norm,
			float64(d.Blocks3[inv])/norm,
			float64(d.Opt[inv])/norm,
			float64(d.Equalizer[inv])/norm)
	}
	t.AddRowf("total",
		float64(TotalPS(d.Blocks1))/norm,
		float64(TotalPS(d.Blocks3))/norm,
		float64(TotalPS(d.Opt))/norm,
		float64(TotalPS(d.Equalizer))/norm)
	b.WriteString(t.String())
	return b.String()
}

// Fig11bData holds the intra-invocation concurrency traces of spmv under
// Equalizer and DynCTA (paper Figure 11b).
type Fig11bData struct {
	// Equalizer is the per-epoch trace of SM 0 (active warps track the
	// concurrency Equalizer chose; Waiting shows the phase change).
	Equalizer []core.TracePoint
	// DynCTA is the per-epoch chip-wide census under DynCTA; Active is
	// the mean active warp count per SM.
	DynCTA []gpu.EpochPoint
}

// Figure11b traces spmv's first invocation under both controllers: the
// blocks-only Equalizer of Figure 11a, and DynCTA.
func (h *Harness) Figure11b() (Fig11bData, error) {
	k, err := kernels.ByName("spmv")
	if err != nil {
		return Fig11bData{}, err
	}
	t, err := h.Prefetch(kernelGrid([]kernels.Kernel{k}, blocksOnly(), DynCTA()))
	if err != nil {
		return Fig11bData{}, err
	}
	return Fig11bData{Equalizer: t[0].Trace[0], DynCTA: t[1].Census[0].Series}, nil
}

// RenderFigure11b formats the spmv adaptivity traces.
func RenderFigure11b(d Fig11bData) string {
	var b strings.Builder
	b.WriteString("Figure 11b: spmv concurrency adaptation (SM 0, per epoch)\n")
	t := metrics.NewTable("epoch", "eq active warps", "eq waiting", "eq blocks", "dynCTA active warps")
	n := len(d.Equalizer)
	if len(d.DynCTA) > n {
		n = len(d.DynCTA)
	}
	for i := 0; i < n; i++ {
		var eqA, eqW, dynA interface{} = "", "", ""
		var blocks interface{} = ""
		if i < len(d.Equalizer) {
			eqA = d.Equalizer[i].Counters.Active
			eqW = d.Equalizer[i].Counters.Waiting
			blocks = d.Equalizer[i].TargetBlocks
		}
		if i < len(d.DynCTA) {
			dynA = d.DynCTA[i].Active
		}
		t.AddRowf(i+1, eqA, eqW, blocks, dynA)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "equalizer restores concurrency once the cache-contended phase ends;\nDynCTA reads the latency-bound waiting as contention and keeps it low.\n")
	return b.String()
}
