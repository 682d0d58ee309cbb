package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/service"
	"equalizer/internal/telemetry"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

// runner holds the state of one workload run.
type runner struct {
	cfg   runConfig
	w     workload
	cells []cell
	// order is the seed-shuffled submission order of the cells in a pass.
	order []int
	// bodies are the cells' /v1/run request bodies.
	bodies [][]byte
	nproc  int
	tmp    string
	tmpSeq int

	// want is the digest every execution of a cell must produce: the bare
	// machine's where one was run in set-up, else the first one observed.
	wantMu sync.Mutex
	want   map[int]string
	// bare holds the set-up's reference runs, by cell index; counts the
	// machines' collected counters (traced runs only).
	bare   map[int]bareResult
	counts map[int]*telemetry.Registry

	fails failLog
	// trace holds every span of a traced run (nil when tracing is off); rec
	// is what the passes record into, nil during the pass that is timed
	// with spans off.
	trace, rec *recorder
	// passSrc and peelSrc tally the sources and refusals of the traced
	// pass's and the peel's service responses.
	passSrc, peelSrc sourceTally

	// svc_warm state, built in set-up.
	warm *warmState
}

// failLog counts failed operations and keeps the first few reasons.
type failLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 10 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// passResult is one timed pass over the workload's ops.
type passResult struct {
	WallS float64
	Ops   int
	// OpMS holds one wall time per op, where ops are observable one by one:
	// by cell index where an op is a cell, by position in the mix on svc_warm.
	OpMS []float64
	// Totals are the results by cell index (nil on svc_warm passes, whose
	// responses are checked against the fill's instead).
	Totals []exp.Totals
	// SimCycles sums the simulated SM cycles of the ops that simulated.
	SimCycles int64
}

func newRunner(cfg runConfig) (*runner, error) {
	w := cfg.w
	if cfg.smoke {
		w = w.smoke()
	}
	cells, err := buildCells(w.kernels)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:    cfg,
		w:      w,
		cells:  cells,
		nproc:  runtime.GOMAXPROCS(0),
		want:   map[int]string{},
		bare:   map[int]bareResult{},
		counts: map[int]*telemetry.Registry{},
	}
	if cfg.trace {
		r.trace = newRecorder()
	}
	r.tmp = filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return nil, err
	}
	return r, nil
}

// close removes every temporary cache directory the run created.
func (r *runner) close() {
	if r.warm != nil {
		closeClients(r.warm.clients)
		r.stopService(r.warm.svc, r.warm.srv)
	}
	_ = os.RemoveAll(r.tmp) // best effort: the directory is gitignored scratch
}

// tmpDir returns a fresh, not yet existing directory path under the run's
// scratch root.
func (r *runner) tmpDir() string {
	r.tmpSeq++
	return filepath.Join(r.tmp, strconv.Itoa(r.tmpSeq))
}

// check records the digest of one execution of cell ci and reports whether
// it matches what every other execution of that cell produced.
func (r *runner) check(ci int, t exp.Totals, where string) {
	d := digest(t)
	r.wantMu.Lock()
	want, ok := r.want[ci]
	if !ok {
		r.want[ci] = d
	}
	r.wantMu.Unlock()
	if ok && want != d {
		r.fails.add("%s: %s digest %.12s differs from %.12s", where, r.cells[ci], d, want)
	}
}

// setup generates the inputs from the seed, runs the bare-machine reference
// and, for svc_warm, starts the service and fills it. Everything before the
// first timed op is in here, and its wall time is setup_s.
func (r *runner) setup() error {
	rng := newRNG(r.cfg.seed)
	r.order = rng.Perm(len(r.cells))
	r.bodies = make([][]byte, len(r.cells))
	for i, c := range r.cells {
		b, err := json.Marshal(c.spec())
		if err != nil {
			return err
		}
		r.bodies[i] = b
	}
	for _, ci := range r.w.refCells(len(r.cells)) {
		var o bareOpts
		if r.cfg.trace {
			// The peel reads the modelled-hardware counts and the
			// steady-state allocations off the same reference runs.
			r.counts[ci] = telemetry.NewRegistry()
			o = bareOpts{collect: r.counts[ci], steadyAllocs: isBaseline(ci)}
		}
		var br bareResult
		var err error
		r.trace.timed("gpu.RunKernel "+r.cells[ci].String(), -1, ci, func() {
			br, err = runBare(r.cells[ci], r.w.scale, o)
		})
		if err != nil {
			return fmt.Errorf("bare reference %s: %w", r.cells[ci], err)
		}
		r.bare[ci] = br
		r.want[ci] = digest(br.Totals)
	}
	if r.w.kind == kindSvcWarm {
		return r.setupWarm(rng)
	}
	return nil
}

// pass runs one timed pass.
func (r *runner) pass() passResult {
	switch r.w.kind {
	case kindSim:
		return r.simPass()
	case kindGrid:
		return r.gridPass()
	case kindSvcCold:
		return r.svcColdPass()
	default:
		return r.warmPass()
	}
}

// simPass runs every cell the way `eqsim -no-cache` does: a fresh
// single-run harness, one Run.
func (r *runner) simPass() passResult {
	res := passResult{Ops: len(r.cells), OpMS: make([]float64, len(r.cells)), Totals: make([]exp.Totals, len(r.cells))}
	root := r.rec.open("pass", -1, -1)
	start := time.Now()
	for _, ci := range r.order {
		c := r.cells[ci]
		sp := r.rec.open("exp.Run "+c.String(), root, ci)
		t0 := time.Now()
		h := exp.New(exp.Options{Parallelism: 1, GridScale: r.w.scale})
		tot, err := h.Run(c.Kernel, c.Setup)
		res.OpMS[ci] = msSince(t0)
		r.rec.close(sp)
		if err != nil {
			r.fails.add("exp.Run %s: %v", c, err)
			continue
		}
		res.Totals[ci] = tot
		res.SimCycles += tot.SMCycles
		r.check(ci, tot, "exp.Run")
	}
	res.WallS = time.Since(start).Seconds()
	r.rec.close(root)
	return res
}

// gridPass runs the cold headline grid the way eqbench does: a fresh disk
// cache, Prefetch on the worker pool, then every cell read back in
// declaration order.
func (r *runner) gridPass() passResult {
	res := passResult{Ops: len(r.cells), Totals: make([]exp.Totals, len(r.cells))}
	dir := r.tmpDir()
	grid := make([]exp.RunRequest, len(r.order))
	for i, ci := range r.order {
		grid[i] = exp.RunRequest{Kernel: r.cells[ci].Kernel, Setup: r.cells[ci].Setup}
	}
	root := r.rec.open("pass", -1, -1)
	start := time.Now()
	cache, err := runcache.Open(dir)
	if err != nil {
		r.fails.add("runcache.Open: %v", err)
		res.WallS = time.Since(start).Seconds()
		return res
	}
	h := exp.New(exp.Options{GridScale: r.w.scale, Cache: cache})
	sp := r.rec.open("exp.Prefetch", root, -1)
	h.Prefetch(grid)
	r.rec.close(sp)
	for ci, c := range r.cells {
		tot, err := h.Run(c.Kernel, c.Setup)
		if err != nil {
			r.fails.add("exp.Run %s: %v", c, err)
			continue
		}
		res.Totals[ci] = tot
		res.SimCycles += tot.SMCycles
		r.check(ci, tot, "exp.Prefetch")
	}
	res.WallS = time.Since(start).Seconds()
	r.rec.close(root)
	// The write side of the cache is part of this workload: every cell must
	// have simulated once and been stored once.
	if st := h.SchedulerStats(); st.Simulated != uint64(len(r.cells)) || st.CacheStores != uint64(len(r.cells)) {
		r.fails.add("grid pass simulated %d and stored %d of %d cells", st.Simulated, st.CacheStores, len(r.cells))
	}
	_ = os.RemoveAll(dir) // best effort, outside the timed region
	return res
}

// client is one closed-loop load generator with one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClients(n int, base string) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
			base: base,
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// post sends one request and returns the status and the body. The body is
// only valid until the client's next post.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// closedLoop runs ops 0..n-1 on len(clients) goroutines, each sending its
// next request only after the previous reply: eqsimd's callers are scripts
// that wait for each answer.
func closedLoop(clients []*client, n int, do func(cl *client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(cl, i)
			}
		}(cl)
	}
	wg.Wait()
}

// runCells posts every cell once as /v1/run from the shared shuffled queue
// and checks every response. It fills res.OpMS, res.Totals and
// res.SimCycles; sources are tallied into src.
func (r *runner) runCells(clients []*client, res *passResult, root int, src *sourceTally) {
	var cycles atomic.Int64
	closedLoop(clients, len(r.order), func(cl *client, i int) {
		ci := r.order[i]
		c := r.cells[ci]
		sp := r.rec.open("POST /v1/run "+c.String(), root, ci)
		t0 := time.Now()
		status, body, err := cl.post("/v1/run", r.bodies[ci])
		res.OpMS[ci] = msSince(t0)
		r.rec.close(sp)
		src.request(err == nil && status == http.StatusOK)
		if err != nil || status != http.StatusOK {
			r.fails.add("POST /v1/run %s: status %d: %v", c, status, err)
			return
		}
		var rr service.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			r.fails.add("POST /v1/run %s: decode: %v", c, err)
			return
		}
		src.add(rr.Source)
		if rr.Source == string(exp.SourceSim) {
			cycles.Add(rr.Totals.SMCycles)
		}
		res.Totals[ci] = rr.Totals
		r.check(ci, rr.Totals, "POST /v1/run")
	})
	res.SimCycles = cycles.Load()
}

// sourceTally counts requests by outcome and response cells by the source
// the service reported. A nil tally counts nothing.
type sourceTally struct {
	mu                sync.Mutex
	requests, refused int
	cells, memo       int
}

// request counts one request; ok is false for any answer other than 200.
func (s *sourceTally) request(ok bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.requests++
	if !ok {
		s.refused++
	}
	s.mu.Unlock()
}

// add counts one response cell.
func (s *sourceTally) add(source string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cells++
	if source == string(exp.SourceMemo) {
		s.memo++
	}
	s.mu.Unlock()
}

// tally is where the current pass's service responses are counted: the
// traced pass's tally while spans are on, nowhere otherwise.
func (r *runner) tally() *sourceTally {
	if r.rec == nil {
		return nil
	}
	return &r.passSrc
}

// startService builds a service on a fresh cache directory behind a
// loopback HTTP server.
func (r *runner) startService() (*service.Service, *httptest.Server, string, error) {
	dir := r.tmpDir()
	svc, err := service.New(service.Config{GridScale: r.w.scale, CacheDir: dir})
	if err != nil {
		return nil, nil, dir, err
	}
	return svc, httptest.NewServer(svc.Handler()), dir, nil
}

// stopService drains the service and closes the server.
func (r *runner) stopService(svc *service.Service, srv *httptest.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		r.fails.add("drain: %v", err)
	}
	srv.Close()
}

// svcColdPass sends every cell as a cold request to a fresh service.
func (r *runner) svcColdPass() passResult {
	res := passResult{Ops: len(r.cells), OpMS: make([]float64, len(r.cells)), Totals: make([]exp.Totals, len(r.cells))}
	root := r.rec.open("pass", -1, -1)
	start := time.Now()
	svc, srv, dir, err := r.startService()
	if err != nil {
		r.fails.add("service.New: %v", err)
		res.WallS = time.Since(start).Seconds()
		return res
	}
	clients := newClients(r.nproc, srv.URL)
	r.runCells(clients, &res, root, r.tally())
	closeClients(clients)
	r.stopService(svc, srv)
	res.WallS = time.Since(start).Seconds()
	r.rec.close(root)
	if st := svc.Stats(); st.Simulated != uint64(len(r.cells)) {
		r.fails.add("cold pass simulated %d of %d cells", st.Simulated, len(r.cells))
	}
	_ = os.RemoveAll(dir) // best effort, outside the timed region
	return res
}

// warmState is the long-lived service of svc_warm.
type warmState struct {
	svc     *service.Service
	srv     *httptest.Server
	clients []*client
	ops     []warmOp
	bodies  [][]byte
	// fill is the set-up pass that simulated every hot cell once.
	fill passResult
	// simulated is Stats().Simulated after the fill; it must never move.
	simulated uint64
}

// setupWarm starts the service, requests each hot cell once (the fill) and
// draws the timed request mix.
func (r *runner) setupWarm(rng *rand.Rand) error {
	svc, srv, _, err := r.startService()
	if err != nil {
		return err
	}
	w := &warmState{svc: svc, srv: srv, clients: newClients(r.nproc, srv.URL)}
	r.warm = w
	w.fill = passResult{Ops: len(r.cells), OpMS: make([]float64, len(r.cells)), Totals: make([]exp.Totals, len(r.cells))}
	start := time.Now()
	r.runCells(w.clients, &w.fill, -1, nil)
	w.fill.WallS = time.Since(start).Seconds()
	w.simulated = svc.Stats().Simulated

	w.ops = warmMix(rng, r.w.warmOps, len(r.cells))
	w.bodies = make([][]byte, len(w.ops))
	for i, op := range w.ops {
		var v any = r.cells[op.Cells[0]].spec()
		if op.Sweep {
			sw := service.SweepSpec{Kernels: []string{r.cells[op.Cells[0]].Kernel.Name}}
			for _, ci := range op.Cells {
				sw.Setups = append(sw.Setups, service.RunSpec{Policy: r.cells[ci].Setup.Policy})
			}
			v = sw
		}
		if w.bodies[i], err = json.Marshal(v); err != nil {
			return err
		}
	}
	return nil
}

// warmVerifyEvery is the share of svc_warm responses decoded and checked
// when tracing is off; decoding every one would make the load generator,
// which shares the CPUs with the server, the larger part of the measurement.
const warmVerifyEvery = 1000

// warmPass replays the request mix against the filled service.
func (r *runner) warmPass() passResult {
	w := r.warm
	res := passResult{Ops: len(w.ops), OpMS: make([]float64, len(w.ops))}
	src := r.tally()
	root := r.rec.open("pass", -1, -1)
	start := time.Now()
	closedLoop(w.clients, len(w.ops), func(cl *client, i int) {
		op := w.ops[i]
		path, name := "/v1/run", "POST /v1/run"
		if op.Sweep {
			path, name = "/v1/sweep", "POST /v1/sweep"
		}
		sp := r.rec.open(name, root, i)
		t0 := time.Now()
		status, body, err := cl.post(path, w.bodies[i])
		res.OpMS[i] = msSince(t0)
		r.rec.close(sp)
		src.request(err == nil && status == http.StatusOK)
		if err != nil || status != http.StatusOK {
			r.fails.add("%s op %d: status %d: %v", name, i, status, err)
			return
		}
		if r.rec == nil && i%warmVerifyEvery != 0 {
			return
		}
		var results []service.RunResult
		if op.Sweep {
			var sr service.SweepResponse
			err = json.Unmarshal(body, &sr)
			results = sr.Results
		} else {
			var rr service.RunResponse
			err = json.Unmarshal(body, &rr)
			results = []service.RunResult{rr.RunResult}
		}
		if err != nil || len(results) != len(op.Cells) {
			r.fails.add("%s op %d: %d results, decode: %v", name, i, len(results), err)
			return
		}
		for j, ci := range op.Cells {
			src.add(results[j].Source)
			r.check(ci, results[j].Totals, name)
		}
	})
	res.WallS = time.Since(start).Seconds()
	r.rec.close(root)
	if got := w.svc.Stats().Simulated; got != w.simulated {
		r.fails.add("warm pass simulated %d runs; a warm request must simulate nothing", got-w.simulated)
		w.simulated = got
	}
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
