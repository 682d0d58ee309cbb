package sm_test

import (
	"bytes"
	"reflect"
	"testing"

	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/policy"
	"equalizer/internal/power"
	"equalizer/internal/sm"
	"equalizer/internal/telemetry"
	"equalizer/internal/warp"
)

// The bitset issue path's contract is byte-identity with the linear-scan
// reference (scanIssue, reachable only from tests): a run must produce the
// same Result, the same telemetry event stream (and Chrome trace bytes), and
// the same per-epoch Equalizer decisions whichever of the two every SM
// issues from. These tests drive run pairs through the whole machine and
// compare everything observable. The external test package lets them compose
// sm with the gpu and policy packages built on it. (The tests keep the
// TestFastForward... names they were given when the bitset path arrived
// together with the since-deleted window skipping.)

// capture is everything observable from one run configuration.
type capture struct {
	results  []gpu.Result
	totals   []gpu.Result
	events   []telemetry.Event
	dropped  uint64
	trace    []byte
	eqTraces [][]core.TracePoint
}

// censusMask records the per-cycle stall census and every warp issue on
// top of the spans: the highest-volume telemetry, which the popcount census
// and find-first-set selection must replicate event for event.
var censusMask = telemetry.MaskSpans | telemetry.MaskOf(telemetry.KindStallCensus, telemetry.KindWarpIssue)

// runCapture executes invocations of tasks on a fresh machine built from cfg,
// issuing from the bitset path or the scan reference, and captures every
// observable output.
func runCapture(t *testing.T, cfg config.GPU, tasks []gpu.Task, invocations int,
	mkPolicy func() gpu.Policy, mask telemetry.Mask, scan bool) capture {
	t.Helper()
	var pol gpu.Policy
	if mkPolicy != nil {
		pol = mkPolicy()
	}
	m, err := gpu.New(cfg, power.Default(), pol)
	if err != nil {
		t.Fatal(err)
	}
	if scan {
		for i := 0; i < m.NumSMs(); i++ {
			sm.UseScanIssue(m.SM(i))
		}
	}
	bus := telemetry.NewBus(1<<15, mask)
	m.AttachTelemetry(bus)

	var c capture
	for inv := 0; inv < invocations; inv++ {
		if len(tasks) == 1 {
			res, err := m.RunKernel(tasks[0].Kernel,
				(tasks[0].Invocation+inv)%tasks[0].Kernel.Invocations)
			if err != nil {
				t.Fatal(err)
			}
			c.results = append(c.results, res)
		} else {
			rs, total, err := m.RunConcurrent(tasks)
			if err != nil {
				t.Fatal(err)
			}
			c.results = append(c.results, rs...)
			c.totals = append(c.totals, total)
		}
	}
	c.events = bus.Events()
	c.dropped = bus.Dropped()
	var buf bytes.Buffer
	err = telemetry.WriteChromeTrace(&buf, c.events, telemetry.ChromeOptions{
		NumSMs: m.NumSMs(), Kernel: tasks[0].Kernel.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.trace = buf.Bytes()

	if p, ok := pol.(*core.Equalizer); ok {
		for i := 0; i < m.NumSMs(); i++ {
			c.eqTraces = append(c.eqTraces, p.TraceSM(i))
		}
	}
	return c
}

// runPair runs the same configuration on the bitset path and on the scan
// reference and requires identical captures.
func runPair(t *testing.T, cfg config.GPU, tasks []gpu.Task, invocations int,
	mkPolicy func() gpu.Policy, mask telemetry.Mask) {
	t.Helper()
	bitset := runCapture(t, cfg, tasks, invocations, mkPolicy, mask, false)
	scan := runCapture(t, cfg, tasks, invocations, mkPolicy, mask, true)
	compareCaptures(t, bitset, scan)
}

func compareCaptures(t *testing.T, bitset, scan capture) {
	t.Helper()
	if !reflect.DeepEqual(bitset.results, scan.results) {
		t.Errorf("results diverge:\nbitset: %+v\nscan:   %+v", bitset.results, scan.results)
	}
	if !reflect.DeepEqual(bitset.totals, scan.totals) {
		t.Errorf("aggregate results diverge:\nbitset: %+v\nscan:   %+v", bitset.totals, scan.totals)
	}
	if bitset.dropped != scan.dropped {
		t.Errorf("dropped events diverge: bitset %d, scan %d", bitset.dropped, scan.dropped)
	}
	if !reflect.DeepEqual(bitset.events, scan.events) {
		if len(bitset.events) != len(scan.events) {
			t.Fatalf("event counts diverge: bitset %d, scan %d", len(bitset.events), len(scan.events))
		}
		for i := range bitset.events {
			if bitset.events[i] != scan.events[i] {
				t.Fatalf("event %d diverges:\nbitset: %+v\nscan:   %+v",
					i, bitset.events[i], scan.events[i])
			}
		}
	}
	if !bytes.Equal(bitset.trace, scan.trace) {
		t.Errorf("Chrome trace bytes diverge (%d vs %d bytes)", len(bitset.trace), len(scan.trace))
	}
	if !reflect.DeepEqual(bitset.eqTraces, scan.eqTraces) {
		t.Errorf("Equalizer per-epoch traces diverge")
		for i := range bitset.eqTraces {
			if i < len(scan.eqTraces) && !reflect.DeepEqual(bitset.eqTraces[i], scan.eqTraces[i]) {
				t.Errorf("SM %d:\nbitset: %+v\nscan:   %+v", i, bitset.eqTraces[i], scan.eqTraces[i])
				break
			}
		}
	}
}

// recordingEqualizer builds an Equalizer that keeps its per-epoch traces.
func recordingEqualizer(mode core.Mode) func() gpu.Policy {
	return func() gpu.Policy {
		e := core.New(mode)
		e.Record = true
		return e
	}
}

// TestFastForwardByteIdenticalAllKernels runs every example kernel under the
// Equalizer runtime on the bitset path and on the scan and requires
// identical results, per-epoch decision traces and span telemetry.
func TestFastForwardByteIdenticalAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep over the full kernel registry")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			if k.GridBlocks > 45 {
				k.GridBlocks = 45
			}
			runPair(t, config.Default(), []gpu.Task{{Kernel: k}}, 1,
				recordingEqualizer(core.EnergyMode), telemetry.MaskSpans)
		})
	}
}

// TestFastForwardByteIdenticalCensusMask compares runs that record the
// per-cycle stall census and every warp issue, ring wrap and drop
// accounting included.
func TestFastForwardByteIdenticalCensusMask(t *testing.T) {
	for _, name := range []string{"cutcp", "lbm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			k.GridBlocks = 30
			mk := func() gpu.Policy { return core.New(core.PerformanceMode) }
			runPair(t, config.Default(), []gpu.Task{{Kernel: k}}, 1, mk, censusMask)
		})
	}
}

// TestFastForwardByteIdenticalMonitorMulti compares a static-concurrency
// run: the machine's warp-state census, compared inside each Result, is
// built from the SM snapshots, so it pins the popcount census against the
// scan's over two back-to-back invocations. (The name is from when a
// Monitor policy sampled the census behind a Multi fan-out.)
func TestFastForwardByteIdenticalMonitorMulti(t *testing.T) {
	k, err := kernels.ByName("bp-1")
	if err != nil {
		t.Fatal(err)
	}
	k.GridBlocks = 45
	mk := func() gpu.Policy { return policy.NewStaticBlocks(4) }
	runPair(t, config.Default(), []gpu.Task{{Kernel: k}}, 2, mk, telemetry.MaskSpans)
}

// TestFastForwardByteIdenticalCCWS compares a CCWS run: its memory-issue
// mask, republished every 64 cycles, vetoes ready memory warps, which both
// paths must count as waiting.
func TestFastForwardByteIdenticalCCWS(t *testing.T) {
	k, err := kernels.ByName("kmn")
	if err != nil {
		t.Fatal(err)
	}
	k.GridBlocks = 30
	mk := func() gpu.Policy { return policy.NewCCWS() }
	runPair(t, config.Default(), []gpu.Task{{Kernel: k}}, 1, mk, telemetry.MaskSpans)
}

// TestFastForwardByteIdenticalConcurrent compares a concurrent two-kernel run
// (disjoint SM partitions, per-partition completion stamps) under Equalizer.
func TestFastForwardByteIdenticalConcurrent(t *testing.T) {
	kc, err := kernels.ByName("cutcp")
	if err != nil {
		t.Fatal(err)
	}
	km, err := kernels.ByName("cfd-1")
	if err != nil {
		t.Fatal(err)
	}
	kc.GridBlocks, km.GridBlocks = 24, 24
	tasks := []gpu.Task{{Kernel: kc}, {Kernel: km}}
	runPair(t, config.Default(), tasks, 1, recordingEqualizer(core.EnergyMode), telemetry.MaskSpans)
}

// TestFastForwardByteIdenticalNilPolicy compares unmanaged back-to-back
// invocations: no policy ever dirties the masks, so the bitset path runs its
// longest incremental stretches, across an SM reset.
func TestFastForwardByteIdenticalNilPolicy(t *testing.T) {
	k, err := kernels.ByName("mri-q")
	if err != nil {
		t.Fatal(err)
	}
	k.GridBlocks = 30
	runPair(t, config.Default(), []gpu.Task{{Kernel: k}}, 2, nil, telemetry.MaskSpans)
}

// fuzzPolicies are the policies FuzzIssueDifferential picks from.
var fuzzPolicies = []func() gpu.Policy{
	nil,
	recordingEqualizer(core.PerformanceMode),
	recordingEqualizer(core.EnergyMode),
	func() gpu.Policy { return policy.NewDynCTA() },
	func() gpu.Policy { return policy.NewCCWS() },
}

// FuzzIssueDifferential runs the bitset path against the scan reference on
// shapes nobody hand-picked: a registry kernel and invocation, reshaped to
// 1-32 warps per block, 1-8 resident blocks and a grid of at most 40 blocks,
// on a validated machine of 1-15 SMs with Wcta-64 warp slots and a 1-16
// entry LSU queue, under no policy, Equalizer (either mode), DynCTA or CCWS.
// The seed corpus lives in testdata/fuzz.
func FuzzIssueDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, kernel, inv, wcta, blocksPerSM, grid, numSMs, maxWarps, lsuDepth, pol uint8) {
		all := kernels.All()
		k := all[int(kernel)%len(all)]
		invocation := int(inv) % k.Invocations
		k.Wcta = 1 + int(wcta)%32
		k.BlocksPerSM = 1 + int(blocksPerSM)%8
		k = k.WithGridScale(float64(1+int(grid)%40)/float64(k.Grid(invocation)), 1)
		cfg := config.Default()
		cfg.NumSMs = 1 + int(numSMs)%15
		cfg.MaxWarpsPerSM = k.Wcta + int(maxWarps)%(config.MaxWarpsPerSMLimit-k.Wcta+1)
		cfg.LSUQueueDepth = 1 + int(lsuDepth)%16
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		tasks := []gpu.Task{{Kernel: k, Invocation: invocation}}
		runPair(t, cfg, tasks, 1, fuzzPolicies[int(pol)%len(fuzzPolicies)], censusMask)
	})
}

// FuzzSMIssueDifferential drives two bare SMs, one per issue path, through
// the cases no registry kernel reaches: barriers (arrival, block-wide
// release), warps and blocks exiting mid-rotation with the unpausing that
// follows, concurrency ceilings moved mid-run and memory-issue masks. Every
// cycle's census, the statistics and the event stream must match.
func FuzzSMIssueDifferential(f *testing.F) {
	f.Add(uint8(4), uint8(6), uint8(2), uint8(3), uint8(1), uint16(40), uint64(0xf0f0f0f0f0f0f0f0), uint8(0))
	f.Add(uint8(8), uint8(2), uint8(0), uint8(1), uint8(0), uint16(9), ^uint64(0), uint8(3))
	f.Add(uint8(16), uint8(4), uint8(1), uint8(2), uint8(2), uint16(100), uint64(0x5555), uint8(1))
	f.Add(uint8(7), uint8(9), uint8(3), uint8(0), uint8(1), uint16(300), uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, wcta, blocks, memEvery, aluGap, texture uint8, insts uint16, memMask uint64, target uint8) {
		cfg := config.Default()
		cfg.NumSMs = 1
		cfg.MaxWarpsPerSM = config.MaxWarpsPerSMLimit
		w := 1 + int(wcta)%32
		nBlocks := 1 + int(blocks)%cfg.MaxBlocksPerSM
		if nBlocks*w > cfg.MaxWarpsPerSM {
			nBlocks = cfg.MaxWarpsPerSM / w
		}
		n := 1 + int(insts)%400
		phase := warp.Phase{
			Insts: n, ALUGap: int(aluGap) % 4, MemEvery: int(memEvery) % 4,
			Pattern: warp.Streaming, Texture: texture%3 == 1, Barrier: true,
		}
		tail := phase
		tail.Insts, tail.Barrier = 1+n/3, texture%3 == 2
		prof := &warp.Profile{LineBytes: cfg.L1.LineBytes, Phases: []warp.Phase{phase, tail, phase}}
		if err := prof.Validate(); err != nil {
			t.Skip(err)
		}

		var sms [2]*sm.SM
		var buses [2]*telemetry.Bus
		for i := range sms {
			sms[i] = sm.New(cfg, 0)
			buses[i] = telemetry.NewBus(1<<12, censusMask)
			sms[i].SetProbe(buses[i])
			sms[i].SetMemIssueMask(memMask)
		}
		sm.UseScanIssue(sms[1])
		launch := func(s *sm.SM, id int) {
			if s.WantsBlock(w) {
				s.LaunchBlock(prof, id, w)
			}
		}
		for b := 0; b < nBlocks; b++ {
			for _, s := range sms {
				launch(s, b)
			}
		}
		const period = clock.Time(1000)
		now := clock.Time(0)
		for c := 0; c < 20000 && !sms[0].Idle(); c++ {
			now += period
			if c%97 == 0 {
				// Move the ceiling: pauses and unpauses blocks mid-run.
				tb := 1 + (int(target)+c/97)%nBlocks
				for _, s := range sms {
					s.SetTargetBlocks(tb)
				}
			}
			if c == 500 {
				for _, s := range sms {
					s.SetMemIssueMask(^uint64(0))
				}
			}
			for _, s := range sms {
				s.Step(now, period)
				if r, ok := s.TakeOutbox(); ok {
					s.DeliverLine(r.Line, now+clock.Time(20+c%50)*period)
				}
				if c%211 == 0 {
					launch(s, nBlocks+c)
				}
			}
			if a, b := sms[0].Snapshot(), sms[1].Snapshot(); a != b {
				t.Fatalf("cycle %d: census diverges: bitset %+v, scan %+v", c, a, b)
			}
			if sms[0].Idle() != sms[1].Idle() {
				t.Fatalf("cycle %d: only one SM went idle", c)
			}
		}
		if a, b := sms[0].Stats(), sms[1].Stats(); a != b {
			t.Fatalf("stats diverge:\nbitset %+v\nscan   %+v", a, b)
		}
		if a, b := buses[0].Events(), buses[1].Events(); !reflect.DeepEqual(a, b) {
			t.Fatalf("event streams diverge (%d vs %d events)", len(a), len(b))
		}
	})
}
