package main

import (
	"testing"

	"equalizer/internal/config"
)

func TestBuildPolicy(t *testing.T) {
	cases := []struct {
		policy, sm string
		wantNil    bool
		label      string
	}{
		{"baseline", "normal", true, "baseline"},
		{"baseline", "high", true, "static(sm=high,mem=normal,blocks=0)"},
		{"static", "normal", true, "static(sm=normal,mem=normal,blocks=0)"},
		{"blocks", "low", true, "static(sm=low,mem=normal,blocks=0)"},
		{"dynCTA", "normal", false, "dynCTA"},
		{"ccws", "normal", false, "CCWS"},
		{"equalizer-energy", "normal", false, "equalizer-energy"},
		{"equalizer-perf", "normal", false, "equalizer-performance"},
		{"Equalizer-Performance", "normal", false, "equalizer-performance"},
	}
	for _, tc := range cases {
		_, p, label, err := buildPolicy(tc.policy, tc.sm, "normal", 0, config.DefaultEqualizer())
		if err != nil {
			t.Errorf("buildPolicy(%q, sm=%s): %v", tc.policy, tc.sm, err)
			continue
		}
		if (p == nil) != tc.wantNil {
			t.Errorf("buildPolicy(%q, sm=%s): nil=%v, want %v", tc.policy, tc.sm, p == nil, tc.wantNil)
		}
		if label != tc.label {
			t.Errorf("buildPolicy(%q, sm=%s): label=%q, want %q", tc.policy, tc.sm, label, tc.label)
		}
	}
	for _, bad := range [][2]string{{"nonsense", "normal"}, {"static", "turbo"}} {
		if _, _, _, err := buildPolicy(bad[0], bad[1], "normal", 0, config.DefaultEqualizer()); err == nil {
			t.Errorf("buildPolicy(%q, sm=%s) accepted", bad[0], bad[1])
		}
	}
}

func TestBuildPolicyStaticBlocks(t *testing.T) {
	setup, p, label, err := buildPolicy("static", "normal", "normal", 3, config.DefaultEqualizer())
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || setup.Blocks != 3 {
		t.Fatalf("static with blocks: policy=%v setup=%+v", p, setup)
	}
	if p.Name() != "static-blocks" || label != "static-blocks" {
		t.Fatalf("name = %q, label = %q", p.Name(), label)
	}
}
