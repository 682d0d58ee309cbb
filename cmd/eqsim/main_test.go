package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/kernels"
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

// traceRun runs eqsim with -trace pointed at a temporary file and returns
// the file's contents.
func traceRun(t *testing.T, opts options) []byte {
	t.Helper()
	opts.trace = filepath.Join(t.TempDir(), "trace")
	if err := run(opts, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.trace)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunRejectsBadMode checks that the per-epoch formats refuse a policy
// that records no epoch trace, naming it.
func TestRunRejectsBadMode(t *testing.T) {
	for _, pol := range []string{"dynCTA", "baseline"} {
		for _, format := range []string{"", "table", "json", "csv"} {
			err := run(options{kernel: "spmv", policy: pol, trace: filepath.Join(t.TempDir(), "t"), traceFormat: format}, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), pol) {
				t.Errorf("-policy %s -trace-format %q: want an error naming the policy, got %v", pol, format, err)
			}
		}
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	err := run(options{kernel: "spmv", policy: "equalizer-perf", trace: filepath.Join(t.TempDir(), "t"), traceFormat: "xml"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-trace-format") {
		t.Fatalf("want -trace-format error, got %v", err)
	}
}

func TestRunRejectsBadSM(t *testing.T) {
	for _, spec := range []string{"x", "-1", "99"} {
		err := run(options{kernel: "spmv", policy: "equalizer-perf", trace: filepath.Join(t.TempDir(), "t"), traceSM: spec}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-trace-sm") {
			t.Fatalf("-trace-sm %q: want error, got %v", spec, err)
		}
	}
}

func TestTraceFlagsNeedTrace(t *testing.T) {
	for _, opts := range []options{
		{kernel: "spmv", policy: "equalizer-perf", traceFormat: "csv"},
		{kernel: "spmv", policy: "equalizer-perf", traceSM: "all"},
	} {
		err := run(opts, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-trace") {
			t.Errorf("%+v: want an error naming -trace, got %v", opts, err)
		}
	}
}

func TestSelectSMs(t *testing.T) {
	sms, err := selectSMs("all", 4)
	if err != nil || len(sms) != 4 || sms[0] != 0 || sms[3] != 3 {
		t.Fatalf("all: got %v, %v", sms, err)
	}
	sms, err = selectSMs("2", 4)
	if err != nil || len(sms) != 1 || sms[0] != 2 {
		t.Fatalf("2: got %v, %v", sms, err)
	}
}

func TestCSVAllSMs(t *testing.T) {
	data := traceRun(t, options{kernel: "mri_g-2", policy: "equalizer-energy", traceFormat: "csv", traceSM: "all"})
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(rows) < 2 {
		t.Fatal("no data rows")
	}
	if got := strings.Join(rows[0], ","); got != "inv,sm,epoch,active,waiting,xalu,xmem,blocks,sm_vf,mem_vf" {
		t.Fatalf("bad header: %s", got)
	}
	sms := map[string]bool{}
	for _, r := range rows[1:] {
		sms[r[1]] = true
	}
	if len(sms) < 2 {
		t.Fatalf("-trace-sm all should cover multiple SMs, got %d", len(sms))
	}
}

func TestJSONSingleSM(t *testing.T) {
	data := traceRun(t, options{kernel: "mri_g-2", policy: "equalizer-perf", traceFormat: "json", traceSM: "1"})
	var doc struct {
		Kernel string `json:"kernel"`
		SMs    []struct {
			SM     int               `json:"sm"`
			Epochs []json.RawMessage `json:"epochs"`
		} `json:"sms"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Kernel != "mri_g-2" || len(doc.SMs) != 1 || doc.SMs[0].SM != 1 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	if len(doc.SMs[0].Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
}

// TestTraceCoversEveryInvocation checks that a multi-invocation kernel's
// epoch trace holds one table block and one JSON document per invocation,
// in launch order.
func TestTraceCoversEveryInvocation(t *testing.T) {
	k, err := kernels.ByName("bfs-2")
	if err != nil {
		t.Fatal(err)
	}
	if k.Invocations != 12 {
		t.Fatalf("bfs-2 has %d invocations, want 12", k.Invocations)
	}
	opts := options{kernel: k.Name, policy: "equalizer-perf", traceFormat: "json"}
	dec := json.NewDecoder(bytes.NewReader(traceRun(t, opts)))
	var invs []int
	for {
		var doc struct {
			Invocation int               `json:"invocation"`
			SMs        []json.RawMessage `json:"sms"`
		}
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("invalid JSON stream: %v", err)
		}
		invs = append(invs, doc.Invocation)
	}
	if len(invs) != k.Invocations {
		t.Fatalf("got %d JSON documents, want %d", len(invs), k.Invocations)
	}
	for i, inv := range invs {
		if inv != i {
			t.Fatalf("document %d is invocation %d", i, inv)
		}
	}

	opts.traceFormat = "table"
	var heads []string
	for _, line := range strings.Split(string(traceRun(t, opts)), "\n") {
		if strings.HasPrefix(line, "# bfs-2 inv ") {
			heads = append(heads, line)
		}
	}
	if len(heads) != k.Invocations {
		t.Fatalf("got %d table blocks, want %d", len(heads), k.Invocations)
	}
	for i, h := range heads {
		if want := fmt.Sprintf("# bfs-2 inv %d mode performance: ", i); !strings.HasPrefix(h, want) {
			t.Fatalf("block %d starts %q, want %q", i, h, want)
		}
	}
}

// chromeEvent is the part of a Chrome trace event the tests check.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	PID  int     `json:"pid"`
	Dur  float64 `json:"dur"`
}

// chromeEvents parses a Chrome trace and checks that every process of the
// 15-SM machine is named and every SM carries block spans.
func chromeEvents(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	const numSMs = 15
	named := map[int]bool{}   // pids with a process_name metadata record
	spanned := map[int]bool{} // SM pids carrying at least one block span
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			named[e.PID] = true
		case e.Ph == "X" && e.PID >= 1 && strings.HasPrefix(e.Name, "block "):
			if e.Dur < 0 {
				t.Fatalf("negative span duration: %+v", e)
			}
			spanned[e.PID] = true
		}
	}
	for pid := 0; pid <= numSMs; pid++ {
		if !named[pid] {
			t.Errorf("process %d missing metadata record", pid)
		}
	}
	for pid := 1; pid <= numSMs; pid++ {
		if !spanned[pid] {
			t.Errorf("SM %d (pid %d) has no block spans", pid-1, pid)
		}
	}
	return doc.TraceEvents
}

// TestChromeTraceCoversAllSMs is the acceptance test for the chrome
// exporter: `eqsim -kernel spmv -trace t.json -trace-format chrome` must
// produce valid Chrome trace-event JSON with block-residency spans on every
// SM, not just SM 0.
func TestChromeTraceCoversAllSMs(t *testing.T) {
	events := chromeEvents(t, traceRun(t, options{kernel: "spmv", policy: "equalizer-perf", traceFormat: "chrome"}))
	sawEpoch, sawVF := false, false
	for _, e := range events {
		switch {
		case e.PID == 0 && strings.HasPrefix(e.Name, "epoch "):
			sawEpoch = true
		case e.Ph == "C" && strings.HasPrefix(e.Name, "vf "):
			sawVF = true
		}
	}
	if !sawEpoch {
		t.Error("no epoch events on the machine process")
	}
	if !sawVF {
		t.Error("no VF-level counter events")
	}
}

// TestChromeTraceDynCTA checks that the chrome format is not tied to
// Equalizer: a DynCTA run, the other half of Figure 11b, traces too.
func TestChromeTraceDynCTA(t *testing.T) {
	chromeEvents(t, traceRun(t, options{kernel: "spmv", policy: "dynCTA", traceFormat: "chrome"}))
}

// TestTraceLeavesTotals checks that tracing only observes the run: a traced
// (live) run's -json output equals the uncached harness run's, for both
// trace paths.
func TestTraceLeavesTotals(t *testing.T) {
	for _, tc := range []options{
		{kernel: "mri_g-2", policy: "equalizer-energy", traceFormat: "csv", traceSM: "all"},
		{kernel: "mri_g-2", policy: "dynCTA", traceFormat: "chrome"},
	} {
		var plain, traced bytes.Buffer
		if err := run(options{kernel: tc.kernel, policy: tc.policy, asJSON: true, noCache: true}, &plain); err != nil {
			t.Fatal(err)
		}
		tc.asJSON, tc.trace = true, filepath.Join(t.TempDir(), "trace")
		if err := run(tc, &traced); err != nil {
			t.Fatal(err)
		}
		if plain.String() != traced.String() {
			t.Errorf("-policy %s -trace-format %s changed the result:\n%s\nwant\n%s", tc.policy, tc.traceFormat, traced.String(), plain.String())
		}
	}
}

// TestTraceReportsWriteErrors checks that a trace the device refuses fails
// the run in every format instead of leaving a silently truncated file.
func TestTraceReportsWriteErrors(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s: %v", full, err)
	}
	for _, format := range []string{"table", "json", "csv", "chrome"} {
		err := run(options{kernel: "mri_g-2", policy: "equalizer-perf", trace: full, traceFormat: format}, &bytes.Buffer{})
		if err == nil {
			t.Errorf("-trace-format %s: writing to %s succeeded", format, full)
		}
	}
}

// runCaptured runs eqsim and returns its stdout and what it wrote to
// os.Stderr.
func runCaptured(t *testing.T, opts options) (stdout, stderr string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	var out bytes.Buffer
	err = run(opts, &out)
	os.Stderr = saved
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), string(data)
}

// cacheEntries counts the result files in a cache directory.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestSetRunsThroughTheCache: a -set run is a cached harness cell keyed on
// its overridden Equalizer parameters, while -v, -metrics and -trace still
// run it live.
func TestSetRunsThroughTheCache(t *testing.T) {
	dir := t.TempDir()
	opts := options{kernel: "cutcp", policy: "equalizer-perf", set: "epochcycles=2048", asJSON: true, cacheDir: dir}
	cold, stderr := runCaptured(t, opts)
	if n := cacheEntries(t, dir); n != 1 || stderr != "" {
		t.Fatalf("cold -set run: %d cache entries, stderr %q; want 1 entry, no cache hit", n, stderr)
	}
	warm, stderr := runCaptured(t, opts)
	if warm != cold || !strings.Contains(stderr, "served from cache") {
		t.Errorf("warm -set run simulated again (stderr %q) or changed the result:\n%s\nwant\n%s", stderr, warm, cold)
	}
	uncached := opts
	uncached.noCache, uncached.cacheDir = true, ""
	if out, _ := runCaptured(t, uncached); out != cold {
		t.Errorf("-no-cache result differs from the cached one:\n%s\nwant\n%s", out, cold)
	}
	defaults := opts
	defaults.set = ""
	if out, _ := runCaptured(t, defaults); out == cold {
		t.Error("epochcycles=2048 gave the default parameters' result")
	}
	entries := cacheEntries(t, dir)

	verbose := opts
	verbose.verbose = true
	if out, _ := runCaptured(t, verbose); !strings.Contains(out, "inv  1:") || !strings.HasSuffix(out, cold) {
		t.Errorf("-v -set did not run live with the same result:\n%s", out)
	}
	metrics := opts
	metrics.metrics = filepath.Join(t.TempDir(), "m.prom")
	if out, _ := runCaptured(t, metrics); out != cold {
		t.Errorf("-metrics -set changed the result:\n%s\nwant\n%s", out, cold)
	}
	if _, err := os.Stat(metrics.metrics); err != nil {
		t.Errorf("-metrics -set wrote no metrics: %v", err)
	}
	traced := opts
	traced.trace = filepath.Join(t.TempDir(), "trace")
	if out, _ := runCaptured(t, traced); out != cold {
		t.Errorf("-trace -set changed the result:\n%s\nwant\n%s", out, cold)
	}
	if data, err := os.ReadFile(traced.trace); err != nil || !strings.Contains(string(data), "epoch") {
		t.Errorf("-trace -set wrote no epoch table: %v", err)
	}
	if n := cacheEntries(t, dir); n != entries {
		t.Errorf("live runs touched the cache: %d entries, want %d", n, entries)
	}
}
