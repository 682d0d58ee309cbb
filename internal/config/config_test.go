package config

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default GPU config invalid: %v", err)
	}
	if err := DefaultEqualizer().Validate(); err != nil {
		t.Fatalf("default Equalizer config invalid: %v", err)
	}
}

func TestDefaultMatchesTableIII(t *testing.T) {
	g := Default()
	if g.NumSMs != 15 || g.PEsPerSM != 32 {
		t.Fatalf("architecture = %d SMs, %d PE/SM; want 15, 32", g.NumSMs, g.PEsPerSM)
	}
	if g.MaxBlocksPerSM != 8 || g.MaxWarpsPerSM != 48 {
		t.Fatalf("max blocks:warps = %d:%d; want 8:48", g.MaxBlocksPerSM, g.MaxWarpsPerSM)
	}
	if g.L1.Sets != 64 || g.L1.Ways != 4 || g.L1.LineBytes != 128 {
		t.Fatalf("L1 = %+v; want 64 sets, 4 way, 128 B/line", g.L1)
	}
	if g.Modulation != 0.15 {
		t.Fatalf("modulation = %g; want 0.15", g.Modulation)
	}
}

func TestEqualizerDefaultsMatchPaper(t *testing.T) {
	e := DefaultEqualizer()
	if e.SampleInterval != 128 {
		t.Fatalf("sample interval = %d; want 128", e.SampleInterval)
	}
	if e.EpochCycles != 4096 {
		t.Fatalf("epoch = %d; want 4096", e.EpochCycles)
	}
	if e.Hysteresis != 3 {
		t.Fatalf("hysteresis = %d; want 3", e.Hysteresis)
	}
	if e.MemSaturationWarps != 2 {
		t.Fatalf("mem saturation floor = %d; want 2", e.MemSaturationWarps)
	}
}

func TestVFLevelStepIsGradual(t *testing.T) {
	if VFLow.Step(+1) != VFNormal {
		t.Fatal("low +1 should be normal")
	}
	if VFLow.Step(+1).Step(+1) != VFHigh {
		t.Fatal("low +2 steps should reach high")
	}
	if VFHigh.Step(+1) != VFHigh {
		t.Fatal("high +1 should saturate at high")
	}
	if VFLow.Step(-1) != VFLow {
		t.Fatal("low -1 should saturate at low")
	}
	if VFNormal.Step(0) != VFNormal {
		t.Fatal("step(0) must not move")
	}
}

func TestVFLevelMultiplier(t *testing.T) {
	if m := VFHigh.Multiplier(0.15); m != 1.15 {
		t.Fatalf("high multiplier = %g; want 1.15", m)
	}
	if m := VFLow.Multiplier(0.15); m != 0.85 {
		t.Fatalf("low multiplier = %g; want 0.85", m)
	}
	if m := VFNormal.Multiplier(0.15); m != 1 {
		t.Fatalf("normal multiplier = %g; want 1", m)
	}
}

func TestVFLevelString(t *testing.T) {
	for l, want := range map[VFLevel]string{VFLow: "low", VFNormal: "normal", VFHigh: "high"} {
		if got := l.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(l), got, want)
		}
	}
	if s := VFLevel(9).String(); !strings.Contains(s, "9") {
		t.Errorf("out-of-range String = %q, want to mention 9", s)
	}
}

func TestCacheBytes(t *testing.T) {
	c := Cache{Sets: 64, Ways: 4, LineBytes: 128}
	if c.Bytes() != 32*1024 {
		t.Fatalf("L1 capacity = %d; want 32768", c.Bytes())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*GPU)
	}{
		{"zero SMs", func(g *GPU) { g.NumSMs = 0 }},
		{"zero blocks", func(g *GPU) { g.MaxBlocksPerSM = 0 }},
		{"zero warps", func(g *GPU) { g.MaxWarpsPerSM = 0 }},
		{"zero alu issue", func(g *GPU) { g.ALUIssuePerCycle = 0 }},
		{"zero lsu", func(g *GPU) { g.LSUQueueDepth = 0 }},
		{"bad L1", func(g *GPU) { g.L1.Sets = 0 }},
		{"bad L2", func(g *GPU) { g.L2.Ways = 0 }},
		{"line mismatch", func(g *GPU) { g.L2.LineBytes = 64 }},
		{"bad clock", func(g *GPU) { g.SMClockPS = 0 }},
		{"bad modulation", func(g *GPU) { g.Modulation = 1.5 }},
		{"bad dram service", func(g *GPU) { g.DRAMServiceInterval = 0 }},
	}
	for _, tc := range cases {
		g := Default()
		tc.mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

// TestMaxWarpsPerSMLimit pins the warp-slot cap at the scheduler's 64-bit
// masks, through both Validate and the -set override path.
func TestMaxWarpsPerSMLimit(t *testing.T) {
	for _, tc := range []struct {
		warps int
		ok    bool
	}{{48, true}, {64, true}, {65, false}, {96, false}} {
		g := Default()
		g.MaxWarpsPerSM = tc.warps
		err := g.Validate()
		g2, e := Default(), DefaultEqualizer()
		setErr := ApplyOverrides(&g2, &e, fmt.Sprintf("maxwarpspersm=%d", tc.warps))
		for _, err := range []error{err, setErr} {
			switch {
			case tc.ok && err != nil:
				t.Errorf("MaxWarpsPerSM=%d rejected: %v", tc.warps, err)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "64-warp limit")):
				t.Errorf("MaxWarpsPerSM=%d: error %v, want one naming the 64-warp limit", tc.warps, err)
			}
		}
	}
}

func TestEqualizerValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Equalizer)
	}{
		{"zero sample", func(e *Equalizer) { e.SampleInterval = 0 }},
		{"zero epoch", func(e *Equalizer) { e.EpochCycles = 0 }},
		{"non-multiple", func(e *Equalizer) { e.EpochCycles = 100 }},
		{"zero hysteresis", func(e *Equalizer) { e.Hysteresis = 0 }},
		{"negative floor", func(e *Equalizer) { e.MemSaturationWarps = -1 }},
		{"both actuators off", func(e *Equalizer) { e.DisableFrequency, e.DisableBlocks = true, true }},
	}
	for _, tc := range cases {
		e := DefaultEqualizer()
		tc.mutate(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

// Property: Step never leaves the valid range and always moves at most one
// level in the requested direction.
func TestQuickStepBounded(t *testing.T) {
	f := func(start uint8, delta int8) bool {
		l := VFLevel(int(start) % 3)
		n := l.Step(int(delta))
		if !n.Valid() {
			return false
		}
		diff := int(n) - int(l)
		if diff < -1 || diff > 1 {
			return false
		}
		if delta > 0 && diff < 0 {
			return false
		}
		if delta < 0 && diff > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
