// Package equalizer is a from-scratch Go reproduction of "Equalizer: Dynamic
// Tuning of GPU Resources for Efficient Execution" (Sethia & Mahlke, MICRO
// 2014).
//
// The module contains a cycle-level Fermi-style GPU simulator (SMs, warp
// scheduler, L1/L2 caches, interconnect, GDDR5-style memory controller, two
// DVFS clock domains), an activity-based energy model, the 27-kernel
// Rodinia/Parboil workload registry of the paper modelled as synthetic warp
// profiles, the Equalizer runtime itself, the DynCTA and CCWS baselines, and
// an experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Entry points:
//
//	cmd/eqsim     run one kernel under one policy (-trace dumps its
//	              per-epoch counters or a Chrome trace)
//	cmd/eqbench   regenerate the paper's tables and figures
//
// The package's examples (example_test.go) walk through the simulator API:
// a quickstart comparison, energy mode and performance mode. go test checks
// what each prints.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's numbers.
package equalizer
