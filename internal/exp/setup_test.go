package exp

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/gpu"
	"equalizer/internal/power"
)

func TestParseSetup(t *testing.T) {
	nominal := config.VFNormal
	cases := []struct {
		policy, sm, mem string
		blocks          int
		want            Setup
	}{
		{"", "", "", 0, Baseline()},
		{"baseline", "normal", "normal", 0, Baseline()},
		{"baseline", "high", "", 0, StaticVF(config.VFHigh, nominal)},
		{"baseline", "", "", 3, Baseline()},
		{"static", "low", "Normal", 0, StaticVF(config.VFLow, nominal)},
		{"static", "HIGH", "low", 0, StaticVF(config.VFHigh, config.VFLow)},
		{"static", "normal", "normal", 3, Setup{Policy: "blocks", SM: nominal, Mem: nominal, Blocks: 3}},
		{"blocks", "high", "", 2, Setup{Policy: "blocks", SM: config.VFHigh, Mem: nominal, Blocks: 2}},
		{"blocks", "", "", 0, Baseline()},
		{"dynCTA", "high", "low", 4, Setup{Policy: "dynCTA", SM: nominal, Mem: nominal}},
		{"ccws", "", "", 0, Setup{Policy: "ccws", SM: nominal, Mem: nominal}},
		{"equalizer-energy", "", "", 0, EqualizerSetup(core.EnergyMode)},
		{"equalizer-perf", "low", "", 0, EqualizerSetup(core.PerformanceMode)},
		{"Equalizer-Performance", "", "", 0, EqualizerSetup(core.PerformanceMode)},
	}
	for _, tc := range cases {
		got, err := ParseSetup(tc.policy, tc.sm, tc.mem, tc.blocks)
		if err != nil || got != tc.want {
			t.Errorf("ParseSetup(%q, %q, %q, %d) = %+v, %v; want %+v",
				tc.policy, tc.sm, tc.mem, tc.blocks, got, err, tc.want)
		}
	}
	for _, bad := range [][3]string{
		{"nonsense", "", ""},
		{"boost", "", ""},
		{"baseline", "turbo", ""},
		{"static", "", "turbo"},
		{"ccws", "turbo", ""},
	} {
		if s, err := ParseSetup(bad[0], bad[1], bad[2], 0); err == nil {
			t.Errorf("ParseSetup(%q, %q, %q) accepted: %+v", bad[0], bad[1], bad[2], s)
		}
	}
}

func TestNewPolicy(t *testing.T) {
	cases := []struct {
		policy string
		blocks int
		name   string // "" = no policy
	}{
		{"baseline", 0, ""},
		{"static", 0, ""},
		{"static", 3, "static-blocks"},
		{"dynCTA", 0, "dynCTA"},
		{"ccws", 0, "CCWS"},
		{"equalizer-energy", 0, "equalizer-energy"},
		{"equalizer-perf", 0, "equalizer-performance"},
		{"Equalizer-Performance", 0, "equalizer-performance"},
	}
	for _, tc := range cases {
		s, err := ParseSetup(tc.policy, "", "", tc.blocks)
		if err != nil {
			t.Fatalf("ParseSetup(%q): %v", tc.policy, err)
		}
		p := NewPolicy(s)
		if (p == nil) != (tc.name == "") || p != nil && p.Name() != tc.name {
			t.Errorf("NewPolicy(%q, blocks=%d) = %v, want name %q", tc.policy, tc.blocks, p, tc.name)
		}
	}
	if p := NewPolicy(Setup{Policy: "boost"}); p == nil || p.Name() != "gpu-boost" {
		t.Errorf("NewPolicy(boost) = %v, want gpu-boost", p)
	}

	// The Equalizer modes take the setup's runtime parameters and record
	// their per-epoch trace, which Totals keeps.
	custom := config.DefaultEqualizer()
	custom.EpochCycles = 2048
	got := NewPolicy(EqualizerSetup(core.EnergyMode).WithEqualizer(custom))
	want := core.NewWithConfig(core.EnergyMode, custom)
	want.Record = true
	if !reflect.DeepEqual(got, want) {
		t.Error("NewPolicy ignored the Equalizer config or did not record")
	}
	custom = config.DefaultEqualizer()
	custom.DisableFrequency = true
	got = NewPolicy(EqualizerSetup(core.PerformanceMode).WithEqualizer(custom))
	want = core.NewWithConfig(core.PerformanceMode, custom)
	want.Record = true
	if !reflect.DeepEqual(got, want) {
		t.Error("NewPolicy dropped the actuator switches")
	}
}

// TestSimulateMatchesHarness: a fresh machine set up for a parsed cell and
// driven by Simulate (eqsim's live path) produces exactly the harness's
// result for every policy ParseSetup accepts, census and trace included.
func TestSimulateMatchesHarness(t *testing.T) {
	k := testKernel(t)
	h := New(Options{GridScale: 0.05})
	for _, c := range [][3]string{
		{"baseline", "high", ""},
		{"static", "normal", "low"},
		{"blocks", "low", "high"},
		{"dynCTA", "", ""},
		{"ccws", "", ""},
		{"equalizer-energy", "", ""},
		{"equalizer-perf", "", ""},
	} {
		s, err := ParseSetup(c[0], c[1], c[2], 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := h.Run(k, s)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gpu.New(config.Default(), power.Default(), NewPolicy(s))
		if err != nil {
			t.Fatal(err)
		}
		m.SetLevelsImmediate(s.SM, s.Mem)
		invs := 0
		got, err := Simulate(context.Background(), m, k.WithGridScale(0.05, config.Default().NumSMs),
			func(int, gpu.Result) { invs++ })
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Errorf("%v: Simulate = %s\nharness = %s", c, gj, wj)
		}
		if !reflect.DeepEqual(got.Census, want.Census) || !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Errorf("%v: Simulate's census or trace differs from the harness's", c)
		}
		if invs != k.Invocations {
			t.Errorf("%v: each ran %d times, want %d", c, invs, k.Invocations)
		}
	}
}

// TestDegenerateCacheEntryResimulated: an entry that decodes but holds
// Totals no simulation produces is a corrupt entry, not a hit: it is
// counted, re-simulated and overwritten.
func TestDegenerateCacheEntryResimulated(t *testing.T) {
	k := testKernel(t)
	for _, body := range []string{`{}`, `null`, `{"TimePS":-5}`} {
		t.Run(body, func(t *testing.T) {
			cache, err := runcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			h := New(Options{GridScale: 0.05, Cache: cache})
			want := h.MustRun(k, Baseline())
			path := cache.Path(h.cacheKey(k.Name, Baseline()))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}

			h2 := New(Options{GridScale: 0.05, Cache: cache})
			got, src, err := h2.RunCtx(context.Background(), k, Baseline())
			if err != nil || src != SourceSim {
				t.Fatalf("RunCtx = (%q, %v), want (sim, nil)", src, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("re-simulated %+v, want %+v", got, want)
			}
			if st := h2.SchedulerStats(); st.CacheErrors != 1 || st.CacheStores != 1 {
				t.Errorf("stats = %+v, want 1 cache error and 1 store", st)
			}
			var healed cacheEntry
			if ok, err := cache.Load(h.cacheKey(k.Name, Baseline()), &healed); !ok || err != nil ||
				!reflect.DeepEqual(healed.totals(), want) {
				t.Errorf("entry not overwritten: ok=%v err=%v %+v", ok, err, healed)
			}
		})
	}
}
