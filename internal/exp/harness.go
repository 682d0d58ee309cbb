// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation on the simulated GPU. Each FigureN /
// TableN method runs the required kernel×policy×operating-point grid and
// returns structured data plus a formatted text rendering, so the same code
// backs the eqbench command, the benchmark suite, and the integration tests.
package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/exp/workpool"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/metrics"
	"equalizer/internal/policy"
	"equalizer/internal/power"
	"equalizer/internal/telemetry"
)

// Options configures a harness.
type Options struct {
	// GPU and Power are the machine model; zero values mean the defaults.
	GPU   *config.GPU
	Power *power.Config
	// GridScale multiplies every kernel's grid size (0 < s <= 1 shrinks
	// runs for smoke tests; 0 means 1.0).
	GridScale float64
	// Parallelism bounds the number of simulations in flight at once:
	// 0 means GOMAXPROCS, 1 runs one simulation at a time. Every
	// parallelism produces byte-identical figure renderings — each run
	// owns its gpu.Machine, and figures aggregate the totals Prefetch
	// returns in grid order, never in completion order.
	Parallelism int
	// Cache is the persistent on-disk result store; nil disables disk
	// caching (in-process memoisation always applies).
	Cache *runcache.Cache
	// Registry receives the harness's scheduler and cache counters
	// (exp_runs_total, exp_cache_hits_total, ...). Nil uses a private
	// registry; stats remain available through SchedulerStats.
	Registry *telemetry.Registry
	// Logf receives scheduler diagnostics such as block-sweep cutoffs;
	// nil discards them.
	Logf func(format string, args ...interface{})
	// Now is an injected monotonic clock (nanoseconds). When set, the
	// harness records per-stage latency histograms (exp_stage_seconds:
	// dedup wait, cache lookup, simulation) into the registry. Simulator
	// results never depend on it — it only feeds telemetry — which is why
	// it is injected rather than read from the wall clock: internal/exp is
	// under the nodeterminism analyzer's wall-clock ban, and tests can pass
	// a fake. Nil disables stage timing.
	Now func() int64
}

// Harness runs experiments. It memoises (kernel, configuration) results
// with singleflight semantics so figures that share runs — e.g. every
// figure needs the baseline — simulate each configuration exactly once even
// when prefetches race, and it executes declared run grids on a bounded
// worker pool. Safe for concurrent use.
type Harness struct {
	gpuCfg config.GPU
	pwrCfg power.Config
	scale  float64
	par    int
	pool   *workpool.Pool
	cache  *runcache.Cache
	logf   func(format string, args ...interface{})
	now    func() int64

	mu   sync.Mutex
	memo map[runKey]*memoEntry

	// simFault, when set, is consulted at the top of every simulation;
	// a non-nil return aborts the run with that error. Test hook for the
	// errors-are-never-memoized guarantee and, by panicking, for the
	// panic barrier.
	simFault func() error

	// Scheduler and cache counters, exported through the telemetry
	// registry supplied in Options.
	runs, sims, memoHits                           *telemetry.Counter
	cacheHits, cacheMisses, cacheStores, cacheErrs *telemetry.Counter
	sweepCutoffs                                   *telemetry.Counter
	canceled, panics                               *telemetry.Counter
	stageDedup, stageCache, stageSim               *telemetry.Histogram
}

// memoEntry is one singleflight cell: the first requester for a key becomes
// the owner, computes the result, and closes done; concurrent requesters
// block on done (or their own context) and then read the shared result. An
// owner whose attempt fails — cancellation or any other error — removes the
// entry before closing done, so a later request retries instead of
// inheriting the failure forever.
type memoEntry struct {
	done chan struct{}
	t    Totals
	err  error
}

// New builds a harness.
func New(opts Options) *Harness {
	h := &Harness{
		gpuCfg: config.Default(),
		pwrCfg: power.Default(),
		scale:  1.0,
		memo:   make(map[runKey]*memoEntry),
		cache:  opts.Cache,
		logf:   opts.Logf,
	}
	if opts.GPU != nil {
		h.gpuCfg = *opts.GPU
	}
	if opts.Power != nil {
		h.pwrCfg = *opts.Power
	}
	if opts.GridScale > 0 {
		h.scale = opts.GridScale
	}
	h.par = opts.Parallelism
	if h.par <= 0 {
		h.par = runtime.GOMAXPROCS(0)
	}
	h.pool = workpool.New(h.par)
	if h.logf == nil {
		h.logf = func(string, ...interface{}) {}
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	h.runs = reg.Counter("exp_runs_total", "run requests, including memoised and cached", nil)
	h.sims = reg.Counter("exp_runs_simulated_total", "runs that actually simulated", nil)
	h.memoHits = reg.Counter("exp_memo_hits_total", "runs answered by the in-process memo", nil)
	h.cacheHits = reg.Counter("exp_cache_hits_total", "runs answered by the disk cache", nil)
	h.cacheMisses = reg.Counter("exp_cache_misses_total", "disk cache lookups that missed", nil)
	h.cacheStores = reg.Counter("exp_cache_stores_total", "results written to the disk cache", nil)
	h.cacheErrs = reg.Counter("exp_cache_errors_total", "corrupt or unwritable cache entries", nil)
	h.sweepCutoffs = reg.Counter("exp_sweep_cutoffs_total", "block sweeps stopped early by monotone-tail detection", nil)
	h.canceled = reg.Counter("exp_runs_canceled_total", "runs abandoned by context cancellation before completing", nil)
	h.panics = reg.Counter("exp_sim_panics_total", "simulations that panicked and were failed with an error", nil)
	h.now = opts.Now
	if h.now != nil {
		bounds := []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}
		h.stageDedup = reg.Histogram("exp_stage_seconds", "per-stage run latency",
			bounds, telemetry.Labels{"stage": "dedup"})
		h.stageCache = reg.Histogram("exp_stage_seconds", "per-stage run latency",
			bounds, telemetry.Labels{"stage": "cache_lookup"})
		h.stageSim = reg.Histogram("exp_stage_seconds", "per-stage run latency",
			bounds, telemetry.Labels{"stage": "simulate"})
	}
	return h
}

// observeStage records one stage duration (start..end in injected-clock
// nanoseconds) when stage timing is enabled.
func (h *Harness) observeStage(hist *telemetry.Histogram, startNS int64) {
	if h.now == nil || hist == nil {
		return
	}
	hist.Observe(float64(h.now()-startNS) / 1e9)
}

// clock returns the injected clock reading, or 0 when timing is disabled.
func (h *Harness) clock() int64 {
	if h.now == nil {
		return 0
	}
	return h.now()
}

// Parallelism returns the worker-pool width the harness was configured
// with. A runtime controller may since have resized the pool; Pool().Size()
// is the live width.
func (h *Harness) Parallelism() int { return h.par }

// Pool returns the harness's run worker pool. The simulation service
// executes its admitted run cells through it, and the service tuner resizes
// it at runtime — resizing only changes how many runs execute concurrently,
// never what a run computes.
func (h *Harness) Pool() *workpool.Pool { return h.pool }

// SchedulerStats snapshots the harness's run and cache counters.
type SchedulerStats struct {
	Runs        uint64 `json:"runs"`
	Simulated   uint64 `json:"simulated"`
	MemoHits    uint64 `json:"memo_hits"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheStores uint64 `json:"cache_stores"`
	CacheErrors uint64 `json:"cache_errors"`
	SweepCutoff uint64 `json:"sweep_cutoffs"`
	Canceled    uint64 `json:"canceled"`
	Panics      uint64 `json:"sim_panics"`
}

// SchedulerStats returns the current counter values.
func (h *Harness) SchedulerStats() SchedulerStats {
	return SchedulerStats{
		Runs:        h.runs.Value(),
		Simulated:   h.sims.Value(),
		MemoHits:    h.memoHits.Value(),
		CacheHits:   h.cacheHits.Value(),
		CacheMisses: h.cacheMisses.Value(),
		CacheStores: h.cacheStores.Value(),
		CacheErrors: h.cacheErrs.Value(),
		SweepCutoff: h.sweepCutoffs.Value(),
		Canceled:    h.canceled.Value(),
		Panics:      h.panics.Value(),
	}
}

// Totals aggregates a kernel's full launch sequence (all invocations).
type Totals struct {
	TimePS   int64
	EnergyJ  float64
	SMCycles int64
	// L1Hit and DRAMUtil are aggregated across invocations weighted by
	// each invocation's SM cycles, so multi-invocation kernels (bfs,
	// mri_g) report true whole-sequence rates.
	L1Hit     float64
	DRAMUtil  float64
	Residency gpu.Residency
	// PerInvocationPS holds each invocation's wall time.
	PerInvocationPS []int64
	// Census holds each invocation's warp-state census, and Trace, for the
	// equalizer-* policies, each invocation's per-epoch record of SM 0.
	// Both stay off the JSON that eqsim and eqsimd print; the disk cache
	// stores them through cacheEntry.
	Census []gpu.Census        `json:"-"`
	Trace  [][]core.TracePoint `json:"-"`
}

// cacheEntry is a cell's stored form: the Totals with the per-invocation
// records their JSON leaves out.
type cacheEntry struct {
	Totals
	Census []gpu.Census
	Trace  [][]core.TracePoint
}

func entryOf(t Totals) cacheEntry { return cacheEntry{t, t.Census, t.Trace} }

func (e cacheEntry) totals() Totals {
	t := e.Totals
	t.Census, t.Trace = e.Census, e.Trace
	return t
}

// plausible reports whether t could be the result of simulating a kernel
// with the given number of invocations: positive time, one wall time and
// one census per invocation, and per-invocation times that sum to the
// total.
func (t Totals) plausible(invocations int) bool {
	if t.TimePS <= 0 || len(t.PerInvocationPS) != invocations || len(t.Census) != invocations {
		return false
	}
	var sum int64
	for _, ps := range t.PerInvocationPS {
		sum += ps
	}
	return sum == t.TimePS
}

// Speedup returns base.Time / t.Time.
func (t Totals) Speedup(base Totals) float64 {
	return float64(base.TimePS) / float64(t.TimePS)
}

// SpeedupErr is Speedup with error reporting: a run that recorded zero
// simulated time (a failed or empty kernel launch) returns an error instead
// of propagating Inf or NaN into downstream aggregates.
func (t Totals) SpeedupErr(base Totals) (float64, error) {
	return metrics.RatioErr(float64(base.TimePS), float64(t.TimePS))
}

// EnergyDelta returns t.Energy/base.Energy - 1 (positive = more energy).
func (t Totals) EnergyDelta(base Totals) float64 {
	return t.EnergyJ/base.EnergyJ - 1
}

// EnergySavings returns 1 - t.Energy/base.Energy.
func (t Totals) EnergySavings(base Totals) float64 {
	return 1 - t.EnergyJ/base.EnergyJ
}

// Efficiency returns the paper's energy-efficiency metric: baseline energy
// divided by this configuration's energy (higher = less energy used).
func (t Totals) Efficiency(base Totals) float64 {
	return base.EnergyJ / t.EnergyJ
}

// Setup names one machine configuration for a run.
type Setup struct {
	// Policy is "baseline", "equalizer-energy", "equalizer-perf", "dynCTA",
	// "ccws", "blocks" or "boost" (the GPU-Boost extension study's
	// controller, which ParseSetup does not accept).
	Policy string
	// SM and Mem are the static VF levels applied before the run.
	SM, Mem config.VFLevel
	// Blocks pins the per-SM block target when > 0 (with Policy "blocks").
	Blocks int
	// Equalizer holds the runtime parameters and actuator switches of the
	// equalizer-* policies and is zero for every other policy, so a baseline
	// cell keys the same whatever parameters its caller parsed. It stays out
	// of the JSON that eqsimd serves; cacheKeyFor hashes it explicitly.
	Equalizer config.Equalizer `json:"-"`
}

// Baseline is the stock machine: all levels nominal, maximum blocks.
func Baseline() Setup { return Setup{Policy: "baseline", SM: config.VFNormal, Mem: config.VFNormal} }

// StaticVF is the baseline at a fixed VF operating point.
func StaticVF(sm, mem config.VFLevel) Setup { return Setup{Policy: "baseline", SM: sm, Mem: mem} }

// DynCTA is the DynCTA concurrency controller at nominal levels.
func DynCTA() Setup { return Setup{Policy: "dynCTA", SM: config.VFNormal, Mem: config.VFNormal} }

// CCWS is the cache-conscious warp scheduler at nominal levels.
func CCWS() Setup { return Setup{Policy: "ccws", SM: config.VFNormal, Mem: config.VFNormal} }

// StaticBlocks pins the block count at nominal frequency.
func StaticBlocks(n int) Setup {
	return Setup{Policy: "blocks", SM: config.VFNormal, Mem: config.VFNormal, Blocks: n}
}

// EqualizerSetup runs the Equalizer policy in the given mode with the
// paper's runtime parameters.
func EqualizerSetup(mode core.Mode) Setup {
	name := "equalizer-perf"
	if mode == core.EnergyMode {
		name = "equalizer-energy"
	}
	return Setup{Policy: name, SM: config.VFNormal, Mem: config.VFNormal, Equalizer: config.DefaultEqualizer()}
}

// WithEqualizer returns s run under the Equalizer parameters eq. Setups of
// the other policies read no parameters and come back unchanged.
func (s Setup) WithEqualizer(eq config.Equalizer) Setup {
	if s.Equalizer != (config.Equalizer{}) {
		s.Equalizer = eq
	}
	return s
}

type runKey struct {
	kernel string
	setup  Setup
}

// cacheSchemaVersion invalidates every persistent entry when the simulator
// or the stored entry's layout changes in a result-affecting way. Bump it
// whenever stored results would no longer match a fresh simulation.
const cacheSchemaVersion = 2

// cacheSchemaDigest is the sha256 of the cache entries that
// TestCacheSchemaPinned simulates at cacheSchemaVersion. Re-pin it with
// every version bump.
const cacheSchemaDigest = "1fa5e283b8c71dddffeb180693289ef4678cbcc697bc3c6a10d9f2a7db93417c"

// cacheKey derives the stable content hash identifying one run's result.
func (h *Harness) cacheKey(kernel string, s Setup) string {
	return cacheKeyFor(cacheSchemaVersion, h.gpuCfg, h.pwrCfg, h.scale, kernel, s)
}

// cacheKeyFor hashes everything that determines a run's result. JSON
// marshalling of these flat structs is deterministic (fields in declaration
// order, no maps), so the hash is stable across processes.
func cacheKeyFor(version int, g config.GPU, p power.Config, scale float64, kernel string, s Setup) string {
	payload := struct {
		Schema    int
		Kernel    string
		Setup     Setup
		Equalizer config.Equalizer
		GPU       config.GPU
		Power     power.Config
		GridScale float64
	}{version, kernel, s, s.Equalizer, g, p, scale}
	b, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("exp: cache key marshal: %v", err)) // flat structs cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// vfLevels is the VF-level vocabulary of ParseSetup; empty means nominal.
var vfLevels = map[string]config.VFLevel{
	"": config.VFNormal, "normal": config.VFNormal, "low": config.VFLow, "high": config.VFHigh,
}

// ParseSetup maps the policy and VF-level names that eqsim's flags and
// eqsimd's RunSpec share onto a Setup. Names are case-insensitive and an
// empty policy means baseline. baseline, static and blocks take the VF
// levels; static and blocks also take the block pin when blocks > 0.
// dynCTA, ccws and the Equalizer modes run at nominal levels and ignore
// both, but an unknown level name is an error for every policy. The
// Equalizer modes get the paper's runtime parameters; WithEqualizer
// replaces them.
func ParseSetup(policy, sm, mem string, blocks int) (Setup, error) {
	var lv [2]config.VFLevel
	for i, name := range [2]string{sm, mem} {
		l, ok := vfLevels[strings.ToLower(name)]
		if !ok {
			return Setup{}, fmt.Errorf("unknown VF level %q (want low, normal or high)", name)
		}
		lv[i] = l
	}
	switch strings.ToLower(policy) {
	case "", "baseline":
		return StaticVF(lv[0], lv[1]), nil
	case "static", "blocks":
		if blocks > 0 {
			return Setup{Policy: "blocks", SM: lv[0], Mem: lv[1], Blocks: blocks}, nil
		}
		return StaticVF(lv[0], lv[1]), nil
	case "dyncta":
		return DynCTA(), nil
	case "ccws":
		return CCWS(), nil
	case "equalizer-energy":
		return EqualizerSetup(core.EnergyMode), nil
	case "equalizer-perf", "equalizer-performance":
		return EqualizerSetup(core.PerformanceMode), nil
	default:
		return Setup{}, fmt.Errorf("unknown policy %q", policy)
	}
}

// NewPolicy constructs the gpu.Policy for a setup; nil means no tuning.
func NewPolicy(s Setup) gpu.Policy {
	switch s.Policy {
	case "baseline", "":
		return nil
	case "blocks":
		return policy.NewStaticBlocks(s.Blocks)
	case "equalizer-energy", "equalizer-perf":
		mode := core.PerformanceMode
		if s.Policy == "equalizer-energy" {
			mode = core.EnergyMode
		}
		e := core.NewWithConfig(mode, s.Equalizer)
		e.Record = true
		return e
	case "dynCTA":
		return policy.NewDynCTA()
	case "ccws":
		return policy.NewCCWS()
	case "boost":
		return policy.NewPowerBoost()
	default:
		panic(fmt.Sprintf("exp: unknown policy %q", s.Policy))
	}
}

// Simulate runs every invocation of k on m in launch order and aggregates
// them into Totals, each invocation's census and, when m runs a recording
// Equalizer, SM 0's trace included. each, when non-nil, sees every
// invocation's result. The context is checked between invocations: a
// canceled run stops at the next invocation boundary rather than finishing
// the whole sequence.
func Simulate(ctx context.Context, m *gpu.Machine, k kernels.Kernel, each func(inv int, r gpu.Result)) (Totals, error) {
	var t Totals
	var l1Weighted, dramWeighted float64
	for inv := 0; inv < k.Invocations; inv++ {
		if err := ctx.Err(); err != nil {
			return Totals{}, fmt.Errorf("exp: simulate %s invocation %d: %w", k.Name, inv, err)
		}
		res, err := m.RunKernel(k, inv)
		if err != nil {
			return Totals{}, err
		}
		if each != nil {
			each(inv, res)
		}
		t.TimePS += res.TimePS
		t.EnergyJ += res.EnergyJ()
		t.SMCycles += res.SMCycles //eqlint:allow cycleaccounting -- aggregates finished per-invocation results, not live accounting
		// float64(…): no fused multiply-add (see power.Meter.Energy).
		l1Weighted += float64(res.L1HitRate * float64(res.SMCycles))
		dramWeighted += float64(res.DRAMUtil * float64(res.SMCycles))
		for i := 0; i < 3; i++ {
			t.Residency.SM[i] += res.Residency.SM[i]
			t.Residency.Mem[i] += res.Residency.Mem[i]
		}
		t.PerInvocationPS = append(t.PerInvocationPS, res.TimePS)
		t.Census = append(t.Census, res.Census)
		if e, ok := m.Policy().(*core.Equalizer); ok && e.Record {
			t.Trace = append(t.Trace, e.Trace())
		}
	}
	if t.SMCycles > 0 {
		t.L1Hit = l1Weighted / float64(t.SMCycles)
		t.DRAMUtil = dramWeighted / float64(t.SMCycles)
	}
	return t, nil
}

// scaled returns k with its grid scaled by the harness factor.
func (h *Harness) scaled(k kernels.Kernel) kernels.Kernel {
	if h.scale == 1.0 {
		return k
	}
	return k.WithGridScale(h.scale, h.gpuCfg.NumSMs)
}

// RunSource says where a RunCtx result came from.
type RunSource string

const (
	// SourceNone marks a request that produced no result (error or
	// cancellation).
	SourceNone RunSource = ""
	// SourceMemo marks a result shared through the in-process
	// singleflight memo.
	SourceMemo RunSource = "memo"
	// SourceCache marks a result loaded from the persistent disk cache.
	SourceCache RunSource = "cache"
	// SourceSim marks a freshly simulated result.
	SourceSim RunSource = "sim"
)

// Run returns the totals of a kernel's full launch sequence under a setup.
// The first request for a key simulates (or loads the persistent cache);
// concurrent requesters for the same key block until that result is ready
// and then share it. Safe for concurrent use.
func (h *Harness) Run(k kernels.Kernel, s Setup) (Totals, error) {
	t, _, err := h.RunCtx(context.Background(), k, s)
	return t, err
}

// isCancellation reports whether err is (or wraps) a context cancellation.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunCtx is Run with cancellation: a requester whose context ends while it
// is waiting — on the singleflight memo or between simulated invocations —
// stops consuming a simulation worker instead of running to completion.
// Errors never poison the memo: an owner whose attempt fails (cancellation
// or any other error, e.g. a transient disk fault) removes its entry so the
// next request for the key recomputes. Waiters already attached to a failed
// attempt share its error — except cancellations, which were the owner's
// own deadline, so the waiter starts over with its own context — and a
// waiter that aborts leaves the owner's computation untouched for everyone
// else.
func (h *Harness) RunCtx(ctx context.Context, k kernels.Kernel, s Setup) (Totals, RunSource, error) {
	h.runs.Inc()
	key := runKey{kernel: k.Name, setup: s}
	for {
		if err := ctx.Err(); err != nil {
			h.canceled.Inc()
			return Totals{}, SourceNone, fmt.Errorf("exp: run %s/%s: %w", k.Name, s.Policy, err)
		}
		h.mu.Lock()
		if e, ok := h.memo[key]; ok {
			h.mu.Unlock()
			wait := h.clock()
			select {
			case <-ctx.Done():
				h.canceled.Inc()
				return Totals{}, SourceNone, fmt.Errorf("exp: run %s/%s: %w", k.Name, s.Policy, ctx.Err())
			case <-e.done:
			}
			if e.err != nil && isCancellation(e.err) {
				// The owner abandoned the computation and removed the
				// entry; start over with our own context.
				continue
			}
			h.observeStage(h.stageDedup, wait)
			h.memoHits.Inc()
			return e.t, SourceMemo, e.err
		}
		e := &memoEntry{done: make(chan struct{})}
		h.memo[key] = e
		h.mu.Unlock()
		var src RunSource
		e.t, src, e.err = h.loadOrSimulate(ctx, k, s)
		if e.err != nil {
			if isCancellation(e.err) {
				h.canceled.Inc()
			}
			h.mu.Lock()
			delete(h.memo, key)
			h.mu.Unlock()
		}
		close(e.done)
		return e.t, src, e.err
	}
}

// loadOrSimulate consults the persistent cache before paying for a
// simulation. A corrupt entry — one that does not decode, or decodes to
// Totals no simulation of k could produce — is counted and healed by
// re-simulating and overwriting it, never a failure.
func (h *Harness) loadOrSimulate(ctx context.Context, k kernels.Kernel, s Setup) (Totals, RunSource, error) {
	if h.cache == nil {
		t, err := h.simulate(ctx, k, s)
		return t, SourceSim, err
	}
	key := h.cacheKey(k.Name, s)
	var e cacheEntry
	lookup := h.clock()
	ok, err := h.cache.Load(key, &e)
	h.observeStage(h.stageCache, lookup)
	t := e.totals()
	if ok && t.plausible(h.scaled(k).Invocations) {
		h.cacheHits.Inc()
		return t, SourceCache, nil
	}
	if err != nil || ok {
		h.cacheErrs.Inc()
	} else {
		h.cacheMisses.Inc()
	}
	t, err = h.simulate(ctx, k, s)
	if err != nil {
		return Totals{}, SourceNone, err
	}
	if serr := h.cache.Store(key, entryOf(t)); serr != nil {
		h.cacheErrs.Inc()
	} else {
		h.cacheStores.Inc()
	}
	return t, SourceSim, nil
}

// simulate runs the kernel's full launch sequence on a fresh machine set
// up for s. A panic inside the simulator fails this run with an error
// instead of taking down the process — and with it every other run on the
// pool; RunCtx then drops the memo entry like for any other error.
func (h *Harness) simulate(ctx context.Context, k kernels.Kernel, s Setup) (t Totals, err error) {
	h.sims.Inc()
	simStart := h.clock()
	defer func() {
		if p := recover(); p != nil {
			h.panics.Inc()
			t, err = Totals{}, fmt.Errorf("exp: run %s/%s panicked: %v", k.Name, s.Policy, p)
		}
		h.observeStage(h.stageSim, simStart)
	}()
	if h.simFault != nil {
		if err := h.simFault(); err != nil {
			return Totals{}, err
		}
	}
	m, err := gpu.New(h.gpuCfg, h.pwrCfg, NewPolicy(s))
	if err != nil {
		return Totals{}, err
	}
	m.SetLevelsImmediate(s.SM, s.Mem)
	return Simulate(ctx, m, h.scaled(k), nil)
}

// RunRequest names one cell of an experiment's run grid.
type RunRequest struct {
	Kernel kernels.Kernel
	Setup  Setup
}

// kernelGrid lists every kernel under every setup, kernel by kernel: ks[i]
// under setups[j] is cell i*len(setups)+j of the grid, and of the totals
// Prefetch returns for it.
func kernelGrid(ks []kernels.Kernel, setups ...Setup) []RunRequest {
	grid := make([]RunRequest, 0, len(ks)*len(setups))
	for _, k := range ks {
		for _, s := range setups {
			grid = append(grid, RunRequest{Kernel: k, Setup: s})
		}
	}
	return grid
}

// Prefetch runs a grid on the worker pool and returns one Totals per cell,
// in grid order. Figures name their whole grid in one call so the pool
// stays saturated instead of discovering runs one sequential Run at a time.
// Each distinct cell runs once, through the singleflight memo; a duplicate
// gets the result of the first cell with its key. The error is the first
// in grid order, so it does not depend on which run finished first.
func (h *Harness) Prefetch(grid []RunRequest) ([]Totals, error) {
	out := make([]Totals, len(grid))
	errs := make([]error, len(grid))
	first := make(map[runKey]int, len(grid))
	var wg sync.WaitGroup
	for i, r := range grid {
		key := runKey{kernel: r.Kernel.Name, setup: r.Setup}
		if _, ok := first[key]; ok {
			continue
		}
		first[key] = i
		wg.Add(1)
		//eqlint:allow nodeterminism -- each worker writes only its own cell's slot; results are read in grid order
		go func(i int, r RunRequest) {
			defer wg.Done()
			var err error
			if perr := h.pool.Do(context.Background(), func() {
				out[i], err = h.Run(r.Kernel, r.Setup)
			}); perr != nil {
				err = perr
			}
			errs[i] = err
		}(i, r)
	}
	wg.Wait()
	for i, r := range grid {
		j := first[runKey{kernel: r.Kernel.Name, setup: r.Setup}]
		if errs[j] != nil {
			return nil, errs[j]
		}
		out[i] = out[j]
	}
	return out, nil
}

// sweepTail is the number of consecutive worsening block counts after which
// BestStaticBlocks stops refining: once performance decays monotonically for
// this long past the best candidate, the remaining (larger) counts cannot
// realistically beat it — block sweeps on this machine are unimodal with a
// flat or decaying tail (Figure 5).
const sweepTail = 3

// BestStaticBlocks sweeps the block count and returns the best-performing
// count and its totals. Candidates run through Prefetch in chunks of the
// pool width; the selection itself scans results in ascending block order,
// so the outcome is identical at every parallelism. The sweep
// short-circuits on a monotone worsening tail.
func (h *Harness) BestStaticBlocks(k kernels.Kernel) (int, Totals, error) {
	maxBlocks := k.MaxResidentBlocks(h.gpuCfg.MaxWarpsPerSM)
	best, bestT := 0, Totals{}
	var prev Totals
	worse := 0
	for lo := 1; lo <= maxBlocks; lo += h.par {
		hi := lo + h.par - 1
		if hi > maxBlocks {
			hi = maxBlocks
		}
		grid := make([]RunRequest, 0, hi-lo+1)
		for b := lo; b <= hi; b++ {
			grid = append(grid, RunRequest{Kernel: k, Setup: StaticBlocks(b)})
		}
		ts, err := h.Prefetch(grid)
		if err != nil {
			return 0, Totals{}, err
		}
		for i, t := range ts {
			b := lo + i
			if best == 0 || t.TimePS < bestT.TimePS {
				best, bestT = b, t
				worse = 0
			} else if t.TimePS >= prev.TimePS {
				worse++
			} else {
				worse = 0
			}
			prev = t
			if worse >= sweepTail && b < maxBlocks {
				h.sweepCutoffs.Inc()
				h.logf("exp: %s block sweep cut off at %d/%d blocks (monotone tail, best=%d)",
					k.Name, b, maxBlocks, best)
				return best, bestT, nil
			}
		}
	}
	return best, bestT, nil
}
