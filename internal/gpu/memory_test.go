package gpu

import (
	"strings"
	"testing"

	"equalizer/internal/cache"
	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/icnt"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
)

// TestFreshMissMemo drives drainRequest by hand on an L2 with one MSHR: two
// ports whose heads share a line are refused from the memo while the L2 is
// saturated; once the MSHR frees, one port's fresh miss is admitted and must
// clear the other port's memo, so that port merges instead of being refused.
// Under eqdebug, verifyInvariants also checks every memo entry against the
// L2.
func TestFreshMissMemo(t *testing.T) {
	cfg := config.Default()
	cfg.L2.MSHRs = 1
	m, err := New(cfg, power.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cache.Addr(0x1000), cache.Addr(0x2000)
	if !m.drainRequest(icnt.Request{SM: 0, Line: a}) {
		t.Fatal("fresh miss refused by an idle L2")
	}
	r1, r2 := icnt.Request{SM: 1, Line: b}, icnt.Request{SM: 2, Line: b}
	for _, r := range []icnt.Request{r1, r2, r1, r2} {
		if m.drainRequest(r) {
			t.Fatalf("port %d: fresh miss admitted with every L2 MSHR busy", r.SM)
		}
		if f := m.freshMiss[r.SM]; !f.valid || f.line != b {
			t.Fatalf("port %d: memo %+v after refusal, want line %#x", r.SM, f, uint64(b))
		}
	}
	m.verifyInvariants()

	// DRAM returns line a: the fill frees the only MSHR.
	m.l2.Fill(a)
	m.l2Waiters[m.l2.Slot()] = m.l2Waiters[m.l2.Slot()][:0]

	if !m.drainRequest(r1) {
		t.Fatal("port 1: fresh miss refused with an MSHR free")
	}
	if m.freshMiss[2].valid {
		t.Fatal("port 2 still remembers line b as fresh after port 1 allocated it")
	}
	m.verifyInvariants()
	if !m.drainRequest(r2) {
		t.Fatal("port 2: refused instead of merging into the pending miss")
	}
	if got := m.l2.Stats().Merged; got != 1 {
		t.Fatalf("L2 merged %d requests, want 1", got)
	}
	if got := m.l2Waiters[m.l2.Slot()]; len(got) != 2 || got[0] != r1 || got[1] != r2 {
		t.Fatalf("waiters on line b = %v, want [%v %v]", got, r1, r2)
	}
	m.verifyInvariants()
}

// leakAtDrain is a policy that, on the cycle the run has fully drained, adds
// one request to an L2 waiter list that no miss owns.
type leakAtDrain struct{ leaked bool }

func (p *leakAtDrain) Name() string                   { return "leak-at-drain" }
func (p *leakAtDrain) Reset(*Machine, kernels.Kernel) { p.leaked = false }
func (p *leakAtDrain) OnSMCycle(m *Machine, _ clock.Time, _ int64) {
	if p.leaked || m.nextBlock < m.totalBlocks || !m.net.Drained() || !m.dram.Drained() || m.l2Replies.Len() > 0 {
		return
	}
	for _, s := range m.sms {
		if !s.Idle() {
			return
		}
	}
	m.l2Waiters[0] = append(m.l2Waiters[0], icnt.Request{SM: 3, Line: 0x80})
	p.leaked = true
}

// TestRunEndConservationReportsLeak checks that the always-on run-end check
// turns a leaked waiter into an error naming the invocation, and that the
// next launch starts clean.
func TestRunEndConservationReportsLeak(t *testing.T) {
	m := newMachine(t)
	p := &leakAtDrain{}
	m.policy = p
	k := smallKernel(t, "cutcp", 15)
	_, err := m.RunKernel(k, 0)
	if !p.leaked {
		t.Fatal("policy never saw the drained machine")
	}
	if err == nil {
		t.Fatal("run with a leaked L2 waiter returned no error")
	}
	for _, want := range []string{"cutcp invocation 0", "1 requests waiting on L2 MSHR slot 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	m.policy = nil
	if _, err := m.RunKernel(k, 0); err != nil {
		t.Fatalf("clean run after the leak: %v", err)
	}
}
