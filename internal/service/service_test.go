package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"equalizer/internal/exp"
	"equalizer/internal/kernels"
	"equalizer/internal/telemetry"
)

// newTestService builds a service on a tiny grid scale with a temp cache.
func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.GridScale == 0 {
		cfg.GridScale = 0.05
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// TestRunMatchesDirectByteIdentical: the service's totals JSON for a run is
// byte-identical to a direct harness run of the same configuration, and a
// repeat request is served from the memo without simulating again.
func TestRunMatchesDirectByteIdentical(t *testing.T) {
	s, srv := newTestService(t, Config{CacheDir: t.TempDir()})

	resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Source != string(exp.SourceSim) {
		t.Errorf("source = %q, want sim", rr.Source)
	}
	// The setup object on the wire names the cell's policy and levels; the
	// Equalizer parameters, actuator switches included, stay off it.
	var raw struct {
		Setup map[string]json.RawMessage `json:"setup"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Policy", "SM", "Mem", "Blocks"} {
		if _, ok := raw.Setup[key]; !ok || len(raw.Setup) != 4 {
			t.Errorf("setup keys = %v, want exactly Policy, SM, Mem and Blocks", raw.Setup)
			break
		}
	}

	// Direct run on an independent harness at the same scale.
	direct := exp.New(exp.Options{GridScale: 0.05})
	k, err := kernels.ByName("cutcp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Run(k, exp.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(rr.Totals)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("service totals differ from direct run:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// Warm repeat: no new simulation.
	resp2 := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
	var rr2 RunResponse
	decodeBody(t, resp2, &rr2)
	if rr2.Source != string(exp.SourceMemo) {
		t.Errorf("warm source = %q, want memo", rr2.Source)
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Errorf("simulated = %d after warm repeat, want 1", st.Simulated)
	}
	got2, _ := json.Marshal(rr2.Totals)
	if !bytes.Equal(got2, wantJSON) {
		t.Error("warm repeat totals differ from cold run")
	}
}

// TestWarmCacheServiceDoesZeroSimulations: a fresh service instance sharing
// the first one's cache directory answers every request from disk.
func TestWarmCacheServiceDoesZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestService(t, Config{CacheDir: dir})
	specs := []RunSpec{
		{Kernel: "cutcp"},
		{Kernel: "cutcp", Policy: "static", SM: "high", Mem: "low"},
	}
	for _, sp := range specs {
		resp := postJSON(t, srv.URL+"/v1/run", sp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold run status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	warm, warmSrv := newTestService(t, Config{CacheDir: dir})
	for _, sp := range specs {
		resp := postJSON(t, warmSrv.URL+"/v1/run", sp)
		var rr RunResponse
		decodeBody(t, resp, &rr)
		if rr.Source != string(exp.SourceCache) {
			t.Errorf("warm source = %q, want cache", rr.Source)
		}
	}
	if st := warm.Stats(); st.Simulated != 0 {
		t.Errorf("warm service simulated %d runs, want 0", st.Simulated)
	}
	if st := warm.Stats(); st.CacheHits != uint64(len(specs)) {
		t.Errorf("warm cache hits = %d, want %d", st.CacheHits, len(specs))
	}
}

// blockingService swaps the run function for one that parks until released.
func blockingService(t *testing.T, cfg Config) (*Service, *httptest.Server, chan struct{}) {
	t.Helper()
	s, srv := newTestService(t, cfg)
	release := make(chan struct{})
	s.run = func(ctx context.Context, k kernels.Kernel, setup exp.Setup) (exp.Totals, exp.RunSource, error) {
		select {
		case <-release:
			return exp.Totals{TimePS: 42}, exp.SourceSim, nil
		case <-ctx.Done():
			return exp.Totals{}, exp.SourceNone, ctx.Err()
		}
	}
	return s, srv, release
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionControlShedsWith429: with one worker and no queue slack, a
// second concurrent request is shed with 429 + Retry-After and the shed
// counter increments; capacity frees once the first request finishes.
func TestAdmissionControlShedsWith429(t *testing.T) {
	s, srv, release := blockingService(t, Config{Parallelism: 1, QueueDepth: -1})

	first := make(chan int, 1)
	go func() {
		resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitFor(t, "first request admitted", func() bool { return s.queued.Load() == 1 })

	resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "lbm"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}
	var er ErrorResponse
	decodeBody(t, resp, &er)
	if er.Error == "" || er.RequestID == "" {
		t.Errorf("error body incomplete: %+v", er)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	// Shedding must not poison readiness.
	if !s.Ready() {
		t.Error("service not ready after shed")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("first request status = %d, want 200", code)
	}
	// Capacity is back: a new request succeeds.
	resp = postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestOversizedSweepRejectedWith413: a sweep larger than the whole queue can
// never be admitted, so it is rejected with 413 (no Retry-After — retrying is
// pointless) rather than shed with 429, and the service keeps serving. The
// rejection comes before the cross product is expanded: a ≈ 33 KB body
// naming 3 000 × 3 000 cells must not allocate the 9 M cells.
func TestOversizedSweepRejectedWith413(t *testing.T) {
	s, srv := newTestService(t, Config{Parallelism: 1, QueueDepth: -1})

	small, err := json.Marshal(SweepSpec{
		Kernels: []string{"cutcp"},
		Setups:  []RunSpec{{}, {Policy: "static", SM: "high"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	huge := `{"kernels":[` + strings.Repeat(`"cutcp",`, 2999) + `"cutcp"],` +
		`"setups":[` + strings.Repeat(`{},`, 2999) + `{}]}`
	for _, tc := range []struct {
		name  string
		body  []byte
		cells string
	}{
		{"2 cells", small, "needs 2 run cells"},
		{"3000x3000 cells", []byte(huge), "needs 9000000 run cells"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		decodeBody(t, resp, &er)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized sweep status = %d, want 413", tc.name, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: 413 carries Retry-After %q; the request can never succeed", tc.name, ra)
		}
		if !strings.Contains(er.Error, "split the sweep") || !strings.Contains(er.Error, tc.cells) {
			t.Errorf("%s: 413 body %q does not tell the client how to proceed", tc.name, er.Error)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Errorf("%s: rejecting a %d-byte body allocated %d MB, want < 64 MB (cross product expanded before the 413?)",
				tc.name, len(tc.body), grew>>20)
		}
	}
	if got := s.shed.Value(); got != 0 {
		t.Errorf("shed counter = %d after capacity rejection, want 0 (not overload)", got)
	}

	// A sweep that fits still works.
	resp := postJSON(t, srv.URL+"/v1/sweep", SweepSpec{Kernels: []string{"cutcp"}, Setups: []RunSpec{{}}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fitting sweep status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestGracefulDrain: draining flips /readyz to 503, refuses new work with
// 503 + Retry-After, completes in-flight runs, and Drain returns once they
// finish.
func TestGracefulDrain(t *testing.T) {
	s, srv, release := blockingService(t, Config{Parallelism: 2})

	if resp, err := http.Get(srv.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain readyz = %v, %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	first := make(chan int, 1)
	go func() {
		resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitFor(t, "in-flight request", func() bool { return s.queued.Load() == 1 })

	s.StartDrain()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "lbm"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining run status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining refusal missing Retry-After")
	}
	resp.Body.Close()

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned before in-flight work finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("in-flight request completed with %d, want 200", code)
	}
}

// TestSweepCrossProduct: a sweep expands kernels×setups in submission order
// and runs cells concurrently through the worker pool.
func TestSweepCrossProduct(t *testing.T) {
	_, srv := newTestService(t, Config{Parallelism: 4})
	resp := postJSON(t, srv.URL+"/v1/sweep", SweepSpec{
		Kernels: []string{"cutcp"},
		Setups: []RunSpec{
			{},
			{Policy: "static", SM: "high"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	var sr SweepResponse
	decodeBody(t, resp, &sr)
	if len(sr.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(sr.Results))
	}
	if sr.Results[0].Setup.Policy != "baseline" || sr.Results[1].Setup.SM != 2 {
		t.Errorf("unexpected cell order: %+v", sr.Results)
	}
	for _, r := range sr.Results {
		if r.Totals.TimePS <= 0 {
			t.Errorf("%s/%s: TimePS = %d, want > 0", r.Kernel, r.Setup.Policy, r.Totals.TimePS)
		}
	}
}

// TestRequestTracesAndChromeExport: completed requests land in the ring
// buffer with stages and request IDs; the chrome form is a valid trace doc.
// The traces are served off the debug handler, not the public one.
func TestRequestTracesAndChromeExport(t *testing.T) {
	s, srv := newTestService(t, Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	t.Cleanup(dbg.Close)
	resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
	resp.Body.Close()

	// The public handler must not expose the trace ring.
	if resp, err := http.Get(srv.URL + "/debug/requests"); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("public /debug/requests = %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(dbg.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var traces []RequestTrace
	decodeBody(t, resp, &traces)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID == "" || tr.Status != 200 || tr.Kernel != "cutcp" {
		t.Errorf("incomplete trace: %+v", tr)
	}
	stages := map[string]bool{}
	for _, st := range tr.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"queue", "run", "encode"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, tr.Stages)
		}
	}

	resp, err = http.Get(dbg.URL + "/debug/requests?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	decodeBody(t, resp, &doc)
	if len(doc.TraceEvents) < 3 { // process meta + request span + stages
		t.Errorf("chrome export has %d events, want >= 3", len(doc.TraceEvents))
	}
}

// TestTracesToChromeSpans renders two request traces, one with stage
// timings and one served from the memo, into a Chrome document and checks
// that the request span and each stage appear by name.
func TestTracesToChromeSpans(t *testing.T) {
	traces := []RequestTrace{
		{
			ID: "req-1", Method: "POST", Path: "/v1/run",
			Kernel: "cutcp", Policy: "baseline", Cells: 1,
			StartUnixNano: 1_000_000_000, DurNS: 25_000_000, Status: 200, Source: "sim",
			Stages: []StageTiming{
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
	var buf bytes.Buffer
	spans, opts := TracesToChromeSpans(traces)
	if err := telemetry.WriteChromeSpans(&buf, spans, opts); err != nil {
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
}

// TestMetricsEndpoints: the live registry serves both formats with the key
// service and scheduler series present.
func TestMetricsEndpoints(t *testing.T) {
	s, srv := newTestService(t, Config{})
	resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
	resp.Body.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"service_requests_total", "service_request_seconds", "service_stage_seconds",
		"service_queue_depth", "service_inflight_runs", "service_ready",
		"exp_runs_total", "exp_runs_simulated_total", "exp_stage_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Prometheus text is the only exposition format.
	resp, err = http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics.json = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %v, %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// pprof lives on the debug handler only.
	dbg := httptest.NewServer(s.DebugHandler())
	t.Cleanup(dbg.Close)
	resp, err = http.Get(dbg.URL + "/debug/pprof/cmdline")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("debug /debug/pprof/cmdline = %v, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("public /debug/pprof/cmdline = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestBadRequests: malformed specs are rejected with 400 and an error body.
func TestBadRequests(t *testing.T) {
	_, srv := newTestService(t, Config{})
	cases := []interface{}{
		RunSpec{Kernel: "no-such-kernel"},
		RunSpec{Kernel: "cutcp", Policy: "warp-teleport"},
		RunSpec{Kernel: "cutcp", SM: "ludicrous"},
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+"/v1/run", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status = %d, want 400", c, resp.StatusCode)
		}
		var er ErrorResponse
		decodeBody(t, resp, &er)
		if er.Error == "" {
			t.Errorf("%+v: empty error body", c)
		}
	}
	// Empty sweep.
	resp := postJSON(t, srv.URL+"/v1/sweep", SweepSpec{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTraceRingWraps: the ring retains only the newest entries.
func TestTraceRingWraps(t *testing.T) {
	r := newTraceRing(4)
	for i := 0; i < 10; i++ {
		r.add(RequestTrace{ID: fmt.Sprintf("req-%d", i)})
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	if got[0].ID != "req-6" || got[3].ID != "req-9" {
		t.Errorf("ring order wrong: %v..%v", got[0].ID, got[3].ID)
	}
}

// TestTunerGrowsUnderQueuePressure: with the controller on and the pool at
// its one-worker floor, a burst of blocked requests makes the tuner grow
// the pool and open admission; the resize reaches the live pool.
func TestTunerGrowsUnderQueuePressure(t *testing.T) {
	s, srv, release := blockingService(t, Config{
		QueueDepth: 8,
		Tune:       true, TuneInterval: 5 * time.Millisecond,
		TuneMinWorkers: 1, TuneMaxWorkers: 4,
	})
	if got := s.h.Parallelism(); got != 1 {
		t.Fatalf("tuned harness starts at parallelism %d, want the 1-worker floor", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: "cutcp"})
			resp.Body.Close()
		}()
	}
	waitFor(t, "requests queued", func() bool { return s.queued.Load() == 4 })
	waitFor(t, "tuner grew the pool", func() bool { return s.h.Pool().Size() > 1 })
	if w, _ := s.tuner.Settings(); w != s.h.Pool().Size() {
		t.Errorf("tuner settings %d != pool size %d", w, s.h.Pool().Size())
	}
	if s.tuner.Epochs() == 0 {
		t.Error("tuner grew without counting epochs")
	}
	close(release)
	wg.Wait()

	// StartDrain stops the controller: epochs freeze.
	s.StartDrain()
	frozen := s.tuner.Epochs()
	time.Sleep(50 * time.Millisecond)
	if got := s.tuner.Epochs(); got != frozen {
		t.Errorf("tuner still ticking after drain: %d -> %d epochs", frozen, got)
	}
}

// TestTunedServiceByteIdentical: results served with the controller on are
// byte-identical to direct harness runs — the tuner changes scheduling,
// never computation.
func TestTunedServiceByteIdentical(t *testing.T) {
	_, srv := newTestService(t, Config{
		CacheDir: t.TempDir(),
		Tune:     true, TuneInterval: 2 * time.Millisecond,
		TuneMinWorkers: 1, TuneMaxWorkers: 4,
	})

	direct := exp.New(exp.Options{GridScale: 0.05})
	var wg sync.WaitGroup
	for _, name := range []string{"cutcp", "lbm"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			resp := postJSON(t, srv.URL+"/v1/run", RunSpec{Kernel: name})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", name, resp.StatusCode)
				resp.Body.Close()
				return
			}
			var rr RunResponse
			decodeBody(t, resp, &rr)
			k, err := kernels.ByName(name)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := direct.Run(k, exp.Baseline())
			if err != nil {
				t.Error(err)
				return
			}
			got, _ := json.Marshal(rr.Totals)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(got, wantJSON) {
				t.Errorf("%s: tuned totals differ from direct run:\n got %s\nwant %s", name, got, wantJSON)
			}
		}(name)
	}
	wg.Wait()
}

// TestDebugTunerEndpoint: /debug/tuner reports the decision ring on the
// debug listener only; the public surface 404s it, and an untuned service
// reports enabled=false.
func TestDebugTunerEndpoint(t *testing.T) {
	s, srv := newTestService(t, Config{
		Tune: true, TuneInterval: 2 * time.Millisecond,
		TuneMinWorkers: 1, TuneMaxWorkers: 2,
	})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	waitFor(t, "tuner epochs", func() bool { return s.tuner.Epochs() > 0 })
	resp, err := http.Get(dbg.URL + "/debug/tuner")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Enabled   bool `json:"enabled"`
		Epochs    uint64
		Workers   int
		Decisions []json.RawMessage `json:"decisions"`
	}
	decodeBody(t, resp, &st)
	if !st.Enabled {
		t.Error("debug tuner reports enabled=false on a tuned service")
	}
	if len(st.Decisions) == 0 {
		t.Error("debug tuner decision ring is empty after epochs ticked")
	}

	// The public surface must not leak the controller's view of load.
	pub, err := http.Get(srv.URL + "/debug/tuner")
	if err != nil {
		t.Fatal(err)
	}
	pub.Body.Close()
	if pub.StatusCode != http.StatusNotFound {
		t.Errorf("public /debug/tuner status = %d, want 404", pub.StatusCode)
	}

	// An untuned service answers, with enabled=false and no ring.
	s2, _ := newTestService(t, Config{})
	dbg2 := httptest.NewServer(s2.DebugHandler())
	defer dbg2.Close()
	resp2, err := http.Get(dbg2.URL + "/debug/tuner")
	if err != nil {
		t.Fatal(err)
	}
	var st2 struct {
		Enabled   bool              `json:"enabled"`
		Decisions []json.RawMessage `json:"decisions"`
	}
	decodeBody(t, resp2, &st2)
	if st2.Enabled || len(st2.Decisions) != 0 {
		t.Errorf("untuned /debug/tuner = %+v, want enabled=false with empty ring", st2)
	}
}
