package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	higher := boundSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := boundSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	exact := boundSpec{Name: "sim_cycles", Better: "lower", Bound: 1e-9}
	for _, c := range []struct {
		name     string
		b        boundSpec
		old, new []float64
		want     verdict
	}{
		{"same", higher, []float64{100}, []float64{100}, verdictOK},
		{"within bound", higher, []float64{100}, []float64{93}, verdictOK},
		{"slower rate", higher, []float64{100}, []float64{85}, verdictRegressed},
		{"faster rate", higher, []float64{100}, []float64{140}, verdictOK},
		{"higher latency", lower, []float64{10}, []float64{11.5}, verdictRegressed},
		{"lower latency", lower, []float64{10}, []float64{7}, verdictOK},
		{"exact equal", exact, []float64{672719, 672719}, []float64{672719, 672719}, verdictOK},
		{"exact one cycle more", exact, []float64{672719}, []float64{672720}, verdictRegressed},
		{"steady and worse", higher, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, verdictRegressed},
		{"noisy and overlapping", higher, []float64{100, 70, 130, 95}, []float64{90, 120, 65, 85}, verdictUnresolved},
		{"noisy but every run worse", higher, []float64{100, 130, 160, 190}, []float64{40, 50, 60, 70}, verdictRegressed},
		{"noisy but every run better", higher, []float64{40, 50, 60, 70}, []float64{100, 130, 160, 190}, verdictOK},
	} {
		if _, got := judge(c.b, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if ratio, _ := judge(higher, []float64{100}, []float64{85}); ratio != 0.85 {
		t.Errorf("ratio = %g, want 0.85 (new over base)", ratio)
	}
}

func testFile(host hostClass, opsPerS float64, failed int) resultFile {
	res := &runResult{Workload: "sim_compute", Attempted: 90, Failed: failed,
		Metrics: map[string]metricValue{"ops_per_s": {Value: opsPerS, Unit: "1/s"}}}
	return resultFile{Host: host, Commit: "test", Sets: []resultSet{{Untraced: map[string]*runResult{"sim_compute": res}}}}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	host := hostClass{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	var out bytes.Buffer

	ok, err := compareFiles(&out, spec, testFile(host, 8.0, 0), testFile(host, 8.1, 0))
	if err != nil || !ok {
		t.Errorf("equal results: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "ratio 1.01") || !strings.Contains(out.String(), "fail_ratio") {
		t.Errorf("the report lacks the ratio or fail_ratio:\n%s", out.String())
	}

	out.Reset()
	ok, err = compareFiles(&out, spec, testFile(host, 8.0, 0), testFile(host, 5.0, 0))
	if err != nil || ok || !strings.Contains(out.String(), string(verdictRegressed)) {
		t.Errorf("a rate slower by more than the bound passed: ok=%v err=%v\n%s", ok, err, out.String())
	}

	ok, err = compareFiles(&out, spec, testFile(host, 8.0, 0), testFile(host, 8.0, 1))
	if err != nil || ok {
		t.Errorf("a rise in fail_ratio passed: ok=%v err=%v", ok, err)
	}

	other := host
	other.NProc, other.GOMAXPROCS = 4, 4
	if _, err = compareFiles(&out, spec, testFile(host, 8.0, 0), testFile(other, 16.0, 0)); err == nil {
		t.Error("results from a 2-CPU and a 4-CPU host were compared")
	}
}
