package main

import (
	"math/rand/v2"

	"equalizer/internal/kernels"
)

// kind selects the call path a workload drives.
type kind int

const (
	// kindSim: one fresh single-run harness per op — what `eqsim -no-cache`
	// does.
	kindSim kind = iota
	// kindGrid: the cold headline grid through Prefetch and the disk cache —
	// what `eqbench` does.
	kindGrid
	// kindSvcCold: every cell as a cold eqsimd request.
	kindSvcCold
	// kindSvcWarm: memoised eqsimd requests; nothing simulates.
	kindSvcWarm
)

// workload is one set of inputs. Everything that sizes a run except its
// length lives here; the length is --seconds (BENCHMARK.json's run_seconds).
type workload struct {
	name string
	kind kind
	// kernels names the registry kernels crossed with setups(); nil means
	// all 27.
	kernels []string
	// scale is the GridScale every layer is configured with.
	scale float64
	// tailPct is the percentile op_tail_ms reports: the highest of
	// tailLadder that keeps ten of one pass's samples beyond it. 50 means
	// a pass supports no tail and op_tail_ms repeats the median.
	tailPct float64
	// warmOps is the number of requests in one svc_warm pass.
	warmOps int
}

// The six workloads. The split follows the paper's argument: compute-,
// memory- and cache-bound kernels stress different resources, so a change to
// SM issue, to the DRAM model or to L1/CTA pausing each has one workload
// where it does most of the work and one where it does almost none; above
// the engine, the cold grid, the cold request and the warm request use the
// harness and the service in opposite ways.
var workloads = []workload{
	{name: "sim_compute", kind: kindSim, scale: 1.0, tailPct: 50,
		kernels: []string{"cutcp", "sgemm", "mri-q", "lavaMD", "pf"}},
	{name: "sim_memory", kind: kindSim, scale: 1.0, tailPct: 50,
		kernels: []string{"lbm", "cfd-1", "histo-3", "leuko-1"}},
	{name: "sim_cache", kind: kindSim, scale: 0.25, tailPct: 50,
		kernels: []string{"bfs-2", "histo-1", "prtcl-1"}},
	{name: "grid_cold", kind: kindGrid, scale: 0.25, tailPct: 50},
	{name: "svc_cold", kind: kindSvcCold, scale: 0.25, tailPct: 75},
	{name: "svc_warm", kind: kindSvcWarm, scale: 0.25, tailPct: 99, warmOps: 10000},
}

// smokeKernels and smokeScale shrink every workload for the -smoke path: the
// cheapest compute, memory and unsaturated kernel (every cache-sensitive one
// costs tenfold), grids at the floor of one block per SM, one pass.
var smokeKernels = []string{"lavaMD", "leuko-1", "sad-1"}

const (
	smokeScale   = 0.05
	smokeWarmOps = 200
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke returns the workload at smoke size. The call path is unchanged.
func (w workload) smoke() workload {
	w.kernels = smokeKernels
	w.scale = smokeScale
	if w.warmOps > 0 {
		w.warmOps = smokeWarmOps
	}
	return w
}

// passOps is the number of ops in one pass.
func (w workload) passOps() int {
	switch {
	case w.warmOps > 0:
		return w.warmOps
	case w.kernels == nil:
		return 3 * len(kernels.All())
	}
	return 3 * len(w.kernels)
}

// refStride spaces the cells of a whole-registry workload that are verified
// against the bare machine in every run: 81 bare runs cost more than the
// measurement itself, every tenth cell covers nine different kernels and
// each setup three times. The traced run peels the same cells.
const refStride = 10

// refCells returns the indexes of the cells checked against (and peeled down
// to) the bare machine: all of them for a sim workload, a strided sample of
// a whole-registry one.
func (w workload) refCells(n int) []int {
	var out []int
	step := 1
	if w.kind != kindSim {
		step = refStride
	}
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// newRNG seeds the generator every input is drawn from. PCG is specified
// bit-for-bit, so a seed means the same inputs on every Go version.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6571626e6368)) // "eqbnch"
}

// warmOp is one svc_warm request: a /v1/run of one hot cell or a /v1/sweep
// of one kernel under the three setups.
type warmOp struct {
	Sweep bool
	// Cells are the indexes of the cells the response must carry, in order.
	Cells []int
}

// warmMix draws n requests: 90 % single runs uniform over the hot cells,
// 10 % sweeps of one kernel x the three setups.
func warmMix(rng *rand.Rand, n, numCells int) []warmOp {
	numKernels := numCells / 3
	ops := make([]warmOp, n)
	for i := range ops {
		if rng.IntN(10) == 0 {
			k := rng.IntN(numKernels)
			ops[i] = warmOp{Sweep: true, Cells: []int{3 * k, 3*k + 1, 3*k + 2}}
		} else {
			ops[i] = warmOp{Cells: []int{rng.IntN(numCells)}}
		}
	}
	return ops
}
