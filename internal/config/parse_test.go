package config

import (
	"strings"
	"testing"
)

func TestApplyOverrides(t *testing.T) {
	g, e := Default(), DefaultEqualizer()
	err := ApplyOverrides(&g, &e, "NumSMs=8, l1.sets=32, epochcycles=2048, modulation=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSMs != 8 || g.L1.Sets != 32 || e.EpochCycles != 2048 || g.Modulation != 0.2 {
		t.Fatalf("overrides not applied: %+v %+v", g, e)
	}
	for _, tc := range []struct {
		spec         string
		freq, blocks bool
	}{
		{"disablefrequency=1", true, false},
		{"DisableBlocks=true", false, true},
		{"disablefrequency=1,disablefrequency=0", false, false},
	} {
		e := DefaultEqualizer()
		if err := ApplyOverrides(&g, &e, tc.spec); err != nil {
			t.Fatalf("ApplyOverrides(%q): %v", tc.spec, err)
		}
		if e.DisableFrequency != tc.freq || e.DisableBlocks != tc.blocks {
			t.Errorf("ApplyOverrides(%q) = %+v, want DisableFrequency=%v DisableBlocks=%v",
				tc.spec, e, tc.freq, tc.blocks)
		}
	}
}

func TestApplyOverridesEmpty(t *testing.T) {
	g, e := Default(), DefaultEqualizer()
	if err := ApplyOverrides(&g, &e, "  "); err != nil {
		t.Fatal(err)
	}
	if g != Default() || e != DefaultEqualizer() {
		t.Fatal("empty spec must not change the configs")
	}
}

func TestApplyOverridesErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"nosuchknob=1", "unknown override key"},
		{"numsms", "not key=value"},
		{"numsms=abc", "invalid syntax"},
		{"l1=3", "names a struct"},
		{"numsms.x=3", "not a struct"},
		{"numsms=0", "must be positive"},                      // fails GPU validation
		{"epochcycles=100", "multiple of SampleInterval"},     // fails Equalizer validation
		{"numsms=99999999999999999999", "value out of range"}, // huge literal
		{"drambanks=16", "unknown override key"},              // rejected, not ignored
		{"disableblocks=2", "invalid syntax"},                 // ParseBool takes 0/1, not 2
		{"disablefrequency=1,disableblocks=1", "no actuator"}, // fails Equalizer validation
	}
	for _, tc := range cases {
		g, e := Default(), DefaultEqualizer()
		err := ApplyOverrides(&g, &e, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ApplyOverrides(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

// FuzzConfigParse asserts the override parser never panics and that a
// successful parse always leaves both configurations valid — the
// properties eqsim's -set flag relies on.
func FuzzConfigParse(f *testing.F) {
	f.Add("numsms=8,l1.sets=32")
	f.Add("epochcycles=2048,sampleinterval=128")
	f.Add("modulation=0.3")
	f.Add("l1.linebytes=64,l2.linebytes=64")
	f.Add("=,=,=")
	f.Add("a=b=c,,")
	f.Add("numsms=-1")
	f.Add("numsms=999999999999999999999999")
	f.Add("disablefrequency=1")
	f.Add("DisableBlocks=true")
	f.Add("disablefrequency=1,disableblocks=1")
	f.Fuzz(func(t *testing.T, spec string) {
		g, e := Default(), DefaultEqualizer()
		if err := ApplyOverrides(&g, &e, spec); err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ApplyOverrides(%q) accepted an invalid GPU config: %v", spec, err)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("ApplyOverrides(%q) accepted an invalid Equalizer config: %v", spec, err)
		}
		// Determinism: the same spec applied to fresh defaults must land on
		// the identical configuration.
		g2, e2 := Default(), DefaultEqualizer()
		if err := ApplyOverrides(&g2, &e2, spec); err != nil {
			t.Fatalf("ApplyOverrides(%q) not deterministic: second run failed: %v", spec, err)
		}
		if g != g2 || e != e2 {
			t.Fatalf("ApplyOverrides(%q) not deterministic: %+v vs %+v", spec, g, g2)
		}
	})
}
