package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equalizer/internal/kernels"
	"equalizer/internal/service"
)

func TestRunRejectsBadMode(t *testing.T) {
	err := run(options{kernel: "spmv", mode: "turbo", format: "table", sm: "0"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-mode") {
		t.Fatalf("want -mode error, got %v", err)
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	err := run(options{kernel: "spmv", mode: "performance", format: "xml", sm: "0"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-format") {
		t.Fatalf("want -format error, got %v", err)
	}
}

func TestRunRejectsBadSM(t *testing.T) {
	for _, spec := range []string{"x", "-1", "99"} {
		err := run(options{kernel: "spmv", mode: "performance", format: "table", sm: spec}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-sm") {
			t.Fatalf("-sm %q: want error, got %v", spec, err)
		}
	}
}

func TestRunRejectsBadInv(t *testing.T) {
	k, err := kernels.ByName("cutcp")
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range []int{-1, k.Invocations} {
		err := run(options{kernel: k.Name, mode: "performance", inv: inv, format: "table", sm: "0"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-inv") || !strings.Contains(err.Error(), fmt.Sprintf("[0,%d)", k.Invocations)) {
			t.Fatalf("-inv %d: want an error naming the valid range, got %v", inv, err)
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
	var buf bytes.Buffer
	if err := run(options{kernel: "mri_g-2", mode: "energy", format: "csv", sm: "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(rows) < 2 {
		t.Fatal("no data rows")
	}
	if got := strings.Join(rows[0], ","); got != "sm,epoch,active,waiting,xalu,xmem,blocks,sm_vf,mem_vf" {
		t.Fatalf("bad header: %s", got)
	}
	sms := map[string]bool{}
	for _, r := range rows[1:] {
		sms[r[0]] = true
	}
	if len(sms) < 2 {
		t.Fatalf("-sm all should cover multiple SMs, got %d", len(sms))
	}
}

func TestJSONSingleSM(t *testing.T) {
	var buf bytes.Buffer
	if err := run(options{kernel: "mri_g-2", mode: "performance", format: "json", sm: "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Kernel string `json:"kernel"`
		SMs    []struct {
			SM     int               `json:"sm"`
			Epochs []json.RawMessage `json:"epochs"`
		} `json:"sms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Kernel != "mri_g-2" || len(doc.SMs) != 1 || doc.SMs[0].SM != 1 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	if len(doc.SMs[0].Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
}

// TestChromeTraceCoversAllSMs is the acceptance test for the chrome
// exporter: `eqtrace -kernel spmv -format chrome` must produce valid Chrome
// trace-event JSON with block-residency spans on every SM, not just SM 0.
func TestChromeTraceCoversAllSMs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(options{
		kernel: "spmv", mode: "performance", format: "chrome", sm: "0", events: 1 << 19,
	}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	const numSMs = 15
	named := map[int]bool{}   // pids with a process_name metadata record
	spanned := map[int]bool{} // SM pids carrying at least one block span
	sawEpoch, sawVF := false, false
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			named[e.PID] = true
		case e.Ph == "X" && e.PID >= 1 && strings.HasPrefix(e.Name, "block "):
			if e.Dur < 0 {
				t.Fatalf("negative span duration: %+v", e)
			}
			spanned[e.PID] = true
		case e.PID == 0 && strings.HasPrefix(e.Name, "epoch "):
			sawEpoch = true
		case e.Ph == "C" && strings.HasPrefix(e.Name, "vf "):
			sawVF = true
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
	if !sawEpoch {
		t.Error("no epoch events on the machine process")
	}
	if !sawVF {
		t.Error("no VF-level counter events")
	}
}

// TestConvertRequests round-trips an eqsimd /debug/requests dump through the
// -requests converter and checks the Chrome document structure.
func TestConvertRequests(t *testing.T) {
	traces := []service.RequestTrace{
		{
			ID: "req-1", Method: "POST", Path: "/v1/run",
			Kernel: "cutcp", Policy: "baseline", Cells: 1,
			StartUnixNano: 1_000_000_000, DurNS: 25_000_000, Status: 200, Source: "sim",
			Stages: []service.StageTiming{
				{Stage: "queue", StartNS: 0, DurNS: 1_000_000},
				{Stage: "run", StartNS: 1_000_000, DurNS: 23_000_000},
				{Stage: "encode", StartNS: 24_000_000, DurNS: 500_000},
			},
		},
		{
			ID: "req-2", Method: "POST", Path: "/v1/run",
			Kernel: "cutcp", Policy: "baseline", Cells: 1,
			StartUnixNano: 1_030_000_000, DurNS: 2_000_000, Status: 200, Source: "memo",
		},
	}
	dump, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "requests.json")
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run(options{requests: path}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"process_name", "POST /v1/run", "queue", "run", "encode"} {
		if !names[want] {
			t.Errorf("missing event %q in %v", want, names)
		}
	}

	if err := run(options{requests: filepath.Join(t.TempDir(), "missing.json")}, &buf); err == nil {
		t.Error("missing dump file: want error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{requests: bad}, &buf); err == nil {
		t.Error("malformed dump: want error")
	}
}
