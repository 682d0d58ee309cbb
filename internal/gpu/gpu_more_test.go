package gpu

import (
	"testing"

	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
)

// cycleRecorder verifies the policy contract: OnSMCycle fires once per SM
// cycle with a monotonically increasing in-invocation counter.
type cycleRecorder struct {
	cycles []int64
	resets int
}

func (r *cycleRecorder) Name() string                   { return "recorder" }
func (r *cycleRecorder) Reset(*Machine, kernels.Kernel) { r.resets++; r.cycles = r.cycles[:0] }
func (r *cycleRecorder) OnSMCycle(_ *Machine, _ clock.Time, c int64) {
	r.cycles = append(r.cycles, c)
}

func TestPolicyCycleContract(t *testing.T) {
	rec := &cycleRecorder{}
	m, err := New(config.Default(), power.Default(), rec)
	if err != nil {
		t.Fatal(err)
	}
	k := smallKernel(t, "cutcp", 15)
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	if rec.resets != 1 {
		t.Fatalf("policy reset %d times, want 1", rec.resets)
	}
	for i, c := range rec.cycles {
		if c != int64(i+1) {
			t.Fatalf("cycle %d delivered as %d", i+1, c)
		}
	}
	// Second invocation starts the counter over.
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
	if rec.resets != 2 || rec.cycles[0] != 1 {
		t.Fatal("invocation restart did not reset the cycle counter")
	}
}

func TestVRMDelayPostponesLevelChange(t *testing.T) {
	m := newMachine(t)
	// Request a boost mid-run via a policy that fires once.
	fired := false
	p := &funcPolicy{fn: func(machine *Machine, _ clock.Time, c int64) {
		if c == 100 && !fired {
			fired = true
			machine.RequestSMLevel(config.VFHigh)
			if machine.SMLevel() != config.VFNormal {
				t.Error("level changed instantly; VRM delay ignored")
			}
		}
		if c == 100+int64(machine.Config().VRMTransitionCycles)+10 {
			if machine.SMLevel() != config.VFHigh {
				t.Error("level not applied after the VRM delay")
			}
		}
	}}
	m.policy = p
	if _, err := m.RunKernel(smallKernel(t, "cutcp", 15), 0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("test policy never fired")
	}
}

type funcPolicy struct {
	fn func(*Machine, clock.Time, int64)
}

func (p *funcPolicy) Name() string                   { return "func" }
func (p *funcPolicy) Reset(*Machine, kernels.Kernel) {}
func (p *funcPolicy) OnSMCycle(m *Machine, now clock.Time, c int64) {
	p.fn(m, now, c)
}

func TestBlocksRemainingDrains(t *testing.T) {
	m := newMachine(t)
	var sawMid bool
	m.policy = &funcPolicy{fn: func(machine *Machine, _ clock.Time, c int64) {
		if r := machine.totalBlocks - machine.nextBlock; r > 0 && r < 30 {
			sawMid = true
		}
	}}
	if _, err := m.RunKernel(smallKernel(t, "cutcp", 30), 0); err != nil {
		t.Fatal(err)
	}
	if r := m.totalBlocks - m.nextBlock; r != 0 {
		t.Fatalf("blocks remaining = %d at end", r)
	}
	_ = sawMid // mid-run draining is timing-dependent; end state is the contract
}

func TestSetTargetBlocksClampsToKernelLimit(t *testing.T) {
	m := newMachine(t)
	m.policy = &funcPolicy{fn: func(machine *Machine, _ clock.Time, c int64) {
		if c == 10 {
			machine.SetTargetBlocks(0, 99)
			if tb := machine.SM(0).TargetBlocks(); tb > machine.MaxResidentBlocks() {
				t.Errorf("target %d exceeds kernel occupancy limit %d", tb, machine.MaxResidentBlocks())
			}
		}
	}}
	k := smallKernel(t, "bfs-2", 0) // occupancy limit 3
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyBreakdownComponentsPresent(t *testing.T) {
	m := newMachine(t)
	res, err := m.RunKernel(smallKernel(t, "lbm", 105), 0)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Energy
	if b.Leakage <= 0 || b.SMDynamic <= 0 || b.SMClock <= 0 ||
		b.MemClock <= 0 || b.Standby <= 0 || b.DRAMAccess <= 0 {
		t.Fatalf("missing energy component: %+v", b)
	}
	// A streaming kernel must burn real DRAM energy.
	if b.DRAMAccess < 0.05*b.Total() {
		t.Fatalf("DRAM energy share %.3f of total; too small for lbm", b.DRAMAccess/b.Total())
	}
}

func TestTextureKernelEndToEnd(t *testing.T) {
	m := newMachine(t)
	res, err := m.RunKernel(smallKernel(t, "leuko-1", 60), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SMCycles <= 0 {
		t.Fatal("no progress")
	}
	// leuko-1 is DRAM-bound through the texture unit.
	if res.DRAMUtil < 0.5 {
		t.Fatalf("leuko-1 DRAM util = %.2f, want bandwidth-bound", res.DRAMUtil)
	}
}
