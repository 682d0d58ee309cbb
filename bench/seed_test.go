package main

import (
	"reflect"
	"testing"
)

func TestSeedFixesTheInputs(t *testing.T) {
	inputs := func(seed uint64) ([]int, []warmOp) {
		rng := newRNG(seed)
		return rng.Perm(81), warmMix(rng, 500, 81)
	}
	order1, mix1 := inputs(7)
	order2, mix2 := inputs(7)
	if !reflect.DeepEqual(order1, order2) || !reflect.DeepEqual(mix1, mix2) {
		t.Fatal("the same seed gave different inputs")
	}
	order3, mix3 := inputs(8)
	if reflect.DeepEqual(order1, order3) {
		t.Error("a different seed gave the same op order")
	}
	if reflect.DeepEqual(mix1, mix3) {
		t.Error("a different seed gave the same request mix")
	}
}

func TestWarmMixShape(t *testing.T) {
	ops := warmMix(newRNG(1), 20000, 81)
	sweeps := 0
	seen := map[int]bool{}
	for _, op := range ops {
		if op.Sweep {
			sweeps++
			if len(op.Cells) != 3 || op.Cells[0]%3 != 0 || op.Cells[1] != op.Cells[0]+1 || op.Cells[2] != op.Cells[0]+2 {
				t.Fatalf("sweep covers cells %v, want one kernel's three setups", op.Cells)
			}
		} else if len(op.Cells) != 1 {
			t.Fatalf("run covers cells %v, want one", op.Cells)
		}
		for _, c := range op.Cells {
			seen[c] = true
		}
	}
	if share := float64(sweeps) / float64(len(ops)); share < 0.08 || share > 0.12 {
		t.Errorf("sweeps are %.3f of the mix, want about a tenth", share)
	}
	if len(seen) != 81 {
		t.Errorf("the mix touches %d of 81 hot cells", len(seen))
	}
}

func TestRefCells(t *testing.T) {
	sim, _ := workloadByName("sim_cache")
	if got := sim.refCells(9); len(got) != 9 {
		t.Errorf("a sim workload references %d of 9 cells against the bare machine, want all", len(got))
	}
	grid, _ := workloadByName("grid_cold")
	got := grid.refCells(81)
	if len(got) != 9 {
		t.Fatalf("a registry workload references %d cells, want 9", len(got))
	}
	setups := map[int]int{}
	for _, ci := range got {
		setups[ci%3]++
	}
	if setups[0] != 3 || setups[1] != 3 || setups[2] != 3 {
		t.Errorf("reference cells cover the setups %v times, want three each", setups)
	}
}
