package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"equalizer/internal/service"
)

// The serving-path load benchmark (-exp service) stands up an in-process
// eqsimd service, hammers it with concurrent run and sweep requests from
// many clients, and reports tail latency, throughput, shed rate and cache
// hit rate. It runs two passes — cold (empty cache) and warm (a fresh
// service instance sharing the first pass's cache directory) — so the
// report tracks both the simulate-and-serve and the
// serve-forever regimes; the warm pass must do zero simulations. With
// -service-tune a third warm pass runs with the self-tuning controller on
// (pool starting at its one-worker floor), so the report records the
// tail-latency consequences of controller-on vs controller-off on the same
// cache — and the tuned pass must shed nothing once past warm-up. Results
// returned over HTTP are verified byte-identical to direct harness runs.
// With -service-url the same load harness drives an externally running
// eqsimd instead (single "remote" pass; identity and scheduler checks are
// skipped since the target is a separate process).

// Load-pass shape, set from the command line (-service-requests,
// -service-clients, -service-tune, -service-url); -parallel bounds the
// service's simulation workers.
var (
	serviceRequests int
	serviceClients  int
	servicePar      int
	serviceTune     bool
	serviceURL      string
)

// serviceCells is the workload mix: one kernel from each paper category
// crossed with the three headline policies — 12 distinct configurations
// that thousands of requests collapse onto, exactly the "popular configs
// simulate once and serve forever" regime the service exists for.
var serviceCells = []service.RunSpec{
	{Kernel: "cutcp"}, {Kernel: "cutcp", Policy: "equalizer-perf"}, {Kernel: "cutcp", Policy: "equalizer-energy"},
	{Kernel: "lbm"}, {Kernel: "lbm", Policy: "equalizer-perf"}, {Kernel: "lbm", Policy: "equalizer-energy"},
	{Kernel: "kmn"}, {Kernel: "kmn", Policy: "equalizer-perf"}, {Kernel: "kmn", Policy: "equalizer-energy"},
	{Kernel: "bp-1"}, {Kernel: "bp-1", Policy: "equalizer-perf"}, {Kernel: "bp-1", Policy: "equalizer-energy"},
}

// servicePass is one load pass's results.
type servicePass struct {
	Name          string  `json:"name"`
	Requests      int     `json:"requests"`
	Clients       int     `json:"clients"`
	OK            int     `json:"ok"`
	Shed          int     `json:"shed"`
	ShedLate      int     `json:"shed_after_warmup"`
	Errors        int     `json:"errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	ShedRate      float64 `json:"shed_rate"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Simulated     uint64  `json:"simulated"`
	// Controller trajectory, present on tuned passes only.
	Tuned        bool   `json:"tuned,omitempty"`
	TunerEpochs  uint64 `json:"tuner_epochs,omitempty"`
	FinalWorkers int    `json:"final_workers,omitempty"`
	FinalAdmit   int    `json:"final_admission_limit,omitempty"`
}

// serviceMeta pins the run's environment and configuration, so a report
// says which host and settings produced its numbers.
type serviceMeta struct {
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	Requests       int     `json:"requests"`
	Clients        int     `json:"clients"`
	Tuned          bool    `json:"tuned"`
	TuneIntervalMS float64 `json:"tune_interval_ms,omitempty"`
	TuneMinWorkers int     `json:"tune_min_workers,omitempty"`
	TuneMaxWorkers int     `json:"tune_max_workers,omitempty"`
}

// serviceReport is the JSON form of -exp service.
type serviceReport struct {
	Scale    float64       `json:"scale"`
	Cells    int           `json:"cells"`
	Parallel int           `json:"parallelism"`
	Meta     serviceMeta   `json:"meta"`
	Passes   []servicePass `json:"passes"`
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// tuneInterval is the control epoch used by the tuned bench pass: short, so
// the controller gets enough epochs inside a brief load pass (a warm pass
// at bench scale lasts well under a second).
const tuneInterval = 10 * time.Millisecond

// serviceBench runs the load passes: cold and warm in-process (plus
// warm-tuned with -service-tune), or one remote pass against -service-url.
func serviceBench(scale float64, requests, clients, parallel int) (serviceReport, error) {
	rep := serviceReport{
		Scale: scale, Cells: len(serviceCells),
		Meta: serviceMeta{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Requests:   requests,
			Clients:    clients,
			Tuned:      serviceTune,
		},
	}
	if serviceURL != "" {
		p, err := loadPass(nil, strings.TrimRight(serviceURL, "/"), "remote", requests, clients)
		if err != nil {
			return rep, err
		}
		rep.Passes = append(rep.Passes, p)
		return rep, nil
	}

	cacheDir, err := os.MkdirTemp("", "eqbench-service-*")
	if err != nil {
		return serviceReport{}, err
	}
	defer os.RemoveAll(cacheDir)

	passes := []string{"cold", "warm"}
	if serviceTune {
		passes = append(passes, "warm-tuned")
	}
	for _, pass := range passes {
		cfg := service.Config{
			GridScale:   scale,
			Parallelism: parallel,
			CacheDir:    cacheDir,
			QueueDepth:  4 * clients,
		}
		tuned := pass == "warm-tuned"
		if tuned {
			cfg.Tune = true
			cfg.TuneInterval = tuneInterval
			cfg.TuneMinWorkers = 1
		}
		svc, err := service.New(cfg)
		if err != nil {
			return rep, err
		}
		if tuned {
			tc := svc.Tuner().Config()
			rep.Meta.TuneIntervalMS = float64(tc.Interval.Milliseconds())
			rep.Meta.TuneMinWorkers = tc.MinWorkers
			rep.Meta.TuneMaxWorkers = tc.MaxWorkers
		} else {
			rep.Parallel = svc.Harness().Parallelism()
		}
		srv := httptest.NewServer(svc.Handler())
		p, err := loadPass(svc, srv.URL, pass, requests, clients)
		srv.Close()
		svc.StartDrain() // stops the controller; the instance is done
		if err != nil {
			return rep, err
		}
		if tuned {
			p.Tuned = true
			p.TunerEpochs = svc.Tuner().Epochs()
			p.FinalWorkers, p.FinalAdmit = svc.Tuner().Settings()
		}
		rep.Passes = append(rep.Passes, p)
		if strings.HasPrefix(pass, "warm") && p.Simulated != 0 {
			return rep, fmt.Errorf("%s pass simulated %d runs, want 0 (cache not serving)", pass, p.Simulated)
		}
		if tuned && p.ShedLate > 0 {
			return rep, fmt.Errorf("tuned pass shed %d requests after warm-up; the controller failed to open capacity", p.ShedLate)
		}
	}
	return rep, nil
}

// loadPass drives one pass of traffic against baseURL. With a non-nil svc
// (in-process target) it also verifies a sampled response against a direct
// harness run and reads the scheduler counters; a nil svc (remote target)
// skips both.
func loadPass(svc *service.Service, baseURL, name string, requests, clients int) (servicePass, error) {
	client := &http.Client{Timeout: 5 * time.Minute}

	bodies := make([][]byte, len(serviceCells))
	for i, c := range serviceCells {
		b, err := json.Marshal(c)
		if err != nil {
			return servicePass{}, err
		}
		bodies[i] = b
	}
	// Every 16th request is a 3-cell sweep over one kernel's policies,
	// exercising the batch path under the same load.
	sweepBody, err := json.Marshal(service.SweepSpec{Runs: serviceCells[:3]})
	if err != nil {
		return servicePass{}, err
	}

	// Requests past the first tenth count as post-warm-up: by then a
	// self-tuning service must have opened enough capacity to stop
	// shedding.
	warmupN := requests / 10
	var (
		next      atomic.Int64
		shed      atomic.Int64
		shedLate  atomic.Int64
		failures  atomic.Int64
		latMu     sync.Mutex
		latencies []float64
		sampleMu  sync.Mutex
		samples   = map[int][]byte{} // cell index -> totals JSON from one 200 response
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				var (
					url  = baseURL + "/v1/run"
					body = bodies[i%len(bodies)]
				)
				if i%16 == 15 {
					url = baseURL + "/v1/sweep"
					body = sweepBody
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				if err != nil {
					failures.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					latMu.Lock()
					latencies = append(latencies, lat.Seconds())
					latMu.Unlock()
					if i%16 != 15 {
						var rr service.RunResponse
						if err := json.NewDecoder(resp.Body).Decode(&rr); err == nil {
							if tj, err := json.Marshal(rr.Totals); err == nil {
								sampleMu.Lock()
								samples[i%len(bodies)] = tj
								sampleMu.Unlock()
							}
						}
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
					if i >= warmupN {
						shedLate.Add(1)
					}
				default:
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Verify byte-identical results: each sampled HTTP totals must equal a
	// direct harness run of the same spec.
	if svc != nil {
		for i, got := range samples {
			want, err := svc.DirectTotals(serviceCells[i])
			if err != nil {
				return servicePass{}, err
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				return servicePass{}, err
			}
			if !bytes.Equal(got, wantJSON) {
				return servicePass{}, fmt.Errorf("%s pass: %s/%s served totals differ from direct run",
					name, serviceCells[i].Kernel, serviceCells[i].Policy)
			}
		}
	}

	sort.Float64s(latencies)
	p := servicePass{
		Name: name, Requests: requests, Clients: clients,
		OK: len(latencies), Shed: int(shed.Load()), ShedLate: int(shedLate.Load()),
		Errors:        int(failures.Load()),
		ElapsedSec:    elapsed.Seconds(),
		ThroughputRPS: float64(len(latencies)) / elapsed.Seconds(),
		P50MS:         percentile(latencies, 0.50) * 1e3,
		P95MS:         percentile(latencies, 0.95) * 1e3,
		P99MS:         percentile(latencies, 0.99) * 1e3,
		ShedRate:      float64(shed.Load()) / float64(requests),
	}
	if svc != nil {
		st := svc.Stats()
		p.Simulated = st.Simulated
		if st.Runs > 0 {
			p.CacheHitRate = float64(st.MemoHits+st.CacheHits) / float64(st.Runs)
		}
	}
	return p, nil
}

func renderService(rep serviceReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Service load benchmark (%d distinct cells, scale %g, %d workers)\n",
		rep.Cells, rep.Scale, rep.Parallel)
	fmt.Fprintf(&b, "%-10s %8s %7s %6s %5s %4s %8s %9s %8s %8s %8s %6s %5s\n",
		"pass", "requests", "clients", "ok", "shed", "err", "wall-s", "req/s", "p50-ms", "p95-ms", "p99-ms", "hit", "sims")
	for _, p := range rep.Passes {
		fmt.Fprintf(&b, "%-10s %8d %7d %6d %5d %4d %8.2f %9.0f %8.2f %8.2f %8.2f %5.1f%% %5d\n",
			p.Name, p.Requests, p.Clients, p.OK, p.Shed, p.Errors, p.ElapsedSec,
			p.ThroughputRPS, p.P50MS, p.P95MS, p.P99MS, 100*p.CacheHitRate, p.Simulated)
	}
	for _, p := range rep.Passes {
		if p.Tuned {
			fmt.Fprintf(&b, "%s: controller ran %d epochs, pool %d -> %d workers, admission %d, %d shed after warm-up\n",
				p.Name, p.TunerEpochs, rep.Meta.TuneMinWorkers, p.FinalWorkers, p.FinalAdmit, p.ShedLate)
		}
	}
	return b.String()
}
