package service

import (
	"fmt"
	"math"

	"equalizer/internal/exp"
	"equalizer/internal/kernels"
)

// RunSpec is the wire form of one run cell: a kernel name plus the policy
// vocabulary of eqsim (baseline | static | blocks | dynCTA | ccws |
// equalizer-energy | equalizer-perf) and optional static VF levels / block
// pin. Zero values mean the baseline at nominal frequency.
type RunSpec struct {
	Kernel string `json:"kernel"`
	Policy string `json:"policy,omitempty"`
	SM     string `json:"sm,omitempty"`
	Mem    string `json:"mem,omitempty"`
	Blocks int    `json:"blocks,omitempty"`
}

// SweepSpec names a batch of run cells: the cross product of Kernels ×
// Setups (each setup's kernel field is ignored) plus any explicit Runs.
type SweepSpec struct {
	Kernels []string  `json:"kernels,omitempty"`
	Setups  []RunSpec `json:"setups,omitempty"`
	Runs    []RunSpec `json:"runs,omitempty"`
}

// RunResult is the wire form of one completed run cell. Totals is the exact
// exp.Totals the harness produced, so its JSON encoding is byte-identical
// to a direct eqsim -json run of the same configuration.
type RunResult struct {
	Kernel string     `json:"kernel"`
	Setup  exp.Setup  `json:"setup"`
	Source string     `json:"source"`
	Totals exp.Totals `json:"totals"`
}

// RunResponse answers POST /v1/run.
type RunResponse struct {
	RequestID string `json:"request_id"`
	RunResult
}

// SweepResponse answers POST /v1/sweep, cells in submission order.
type SweepResponse struct {
	RequestID string      `json:"request_id"`
	Results   []RunResult `json:"results"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	RequestID string `json:"request_id"`
	Error     string `json:"error"`
}

// KernelInfo is one row of GET /v1/kernels.
type KernelInfo struct {
	Name        string `json:"name"`
	App         string `json:"app"`
	Category    string `json:"category"`
	Invocations int    `json:"invocations"`
}

// cell is one resolved unit of work.
type cell struct {
	kernel kernels.Kernel
	setup  exp.Setup
}

// resolve maps a RunSpec onto the harness vocabulary through exp.ParseSetup,
// validating the kernel, policy and VF-level names.
func (r RunSpec) resolve() (cell, error) {
	k, err := kernels.ByName(r.Kernel)
	if err != nil {
		return cell{}, err
	}
	setup, err := exp.ParseSetup(r.Policy, r.SM, r.Mem, r.Blocks)
	if err != nil {
		return cell{}, err
	}
	return cell{kernel: k, setup: setup}, nil
}

// count is the number of cells the sweep expands to, saturating at
// math.MaxInt, computed without expanding it.
func (sw SweepSpec) count() int {
	perKernel := max(1, len(sw.Setups))
	if len(sw.Kernels) > (math.MaxInt-len(sw.Runs))/perKernel {
		return math.MaxInt
	}
	return len(sw.Kernels)*perKernel + len(sw.Runs)
}

// cells expands a sweep into its resolved run cells, in submission order.
func (sw SweepSpec) cells() ([]cell, error) {
	var out []cell
	for _, kn := range sw.Kernels {
		if len(sw.Setups) == 0 {
			c, err := (RunSpec{Kernel: kn}).resolve()
			if err != nil {
				return nil, err
			}
			out = append(out, c)
			continue
		}
		for _, sp := range sw.Setups {
			sp.Kernel = kn
			c, err := sp.resolve()
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	for _, sp := range sw.Runs {
		c, err := sp.resolve()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep: need kernels, setups or runs")
	}
	return out, nil
}

// Kernels lists the available kernels in presentation order.
func Kernels() []KernelInfo {
	var out []KernelInfo
	for _, k := range kernels.All() {
		out = append(out, KernelInfo{
			Name: k.Name, App: k.App, Category: k.Category.String(), Invocations: k.Invocations,
		})
	}
	return out
}
