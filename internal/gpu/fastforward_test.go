package gpu_test

import (
	"bytes"
	"reflect"
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/policy"
	"equalizer/internal/power"
	"equalizer/internal/telemetry"
)

// The fast-forward engine's contract is byte-identity: with it on or off, a
// run must produce the same Result, the same telemetry event stream (and
// Chrome trace bytes), and the same per-epoch Equalizer decisions. These
// tests drive run pairs through every example kernel and compare everything
// observable. The external test package lets them compose gpu with the
// policies that depend on it.

// capture is everything observable from one run configuration.
type capture struct {
	results  []gpu.Result
	totals   []gpu.Result
	events   []telemetry.Event
	dropped  uint64
	trace    []byte
	eqTraces [][]core.TracePoint
	series   []policy.EpochPoint
}

// runCapture executes invocations of tasks on a fresh machine with the
// fast-forward engine on or off and captures every observable output.
func runCapture(t *testing.T, tasks []gpu.Task, invocations int,
	mkPolicy func() gpu.Policy, mask telemetry.Mask, fastForward bool) capture {
	t.Helper()
	var pol gpu.Policy
	if mkPolicy != nil {
		pol = mkPolicy()
	}
	m := gpu.MustNew(config.Default(), power.Default(), pol)
	m.SetFastForward(fastForward)
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
	err := telemetry.WriteChromeTrace(&buf, c.events, telemetry.ChromeOptions{
		NumSMs: m.NumSMs(), Kernel: tasks[0].Kernel.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.trace = buf.Bytes()

	switch p := pol.(type) {
	case *core.Equalizer:
		for i := 0; i < p.TracedSMs(); i++ {
			c.eqTraces = append(c.eqTraces, p.TraceSM(i))
		}
	case policy.Multi:
		for _, member := range p {
			if mon, ok := member.(*policy.Monitor); ok {
				c.series = append([]policy.EpochPoint(nil), mon.Series()...)
			}
		}
	}
	return c
}

func compareCaptures(t *testing.T, fast, legacy capture) {
	t.Helper()
	if !reflect.DeepEqual(fast.results, legacy.results) {
		t.Errorf("results diverge:\nfast:   %+v\nlegacy: %+v", fast.results, legacy.results)
	}
	if !reflect.DeepEqual(fast.totals, legacy.totals) {
		t.Errorf("aggregate results diverge:\nfast:   %+v\nlegacy: %+v", fast.totals, legacy.totals)
	}
	if fast.dropped != legacy.dropped {
		t.Errorf("dropped events diverge: fast %d, legacy %d", fast.dropped, legacy.dropped)
	}
	if !reflect.DeepEqual(fast.events, legacy.events) {
		if len(fast.events) != len(legacy.events) {
			t.Fatalf("event counts diverge: fast %d, legacy %d", len(fast.events), len(legacy.events))
		}
		for i := range fast.events {
			if fast.events[i] != legacy.events[i] {
				t.Fatalf("event %d diverges:\nfast:   %+v\nlegacy: %+v",
					i, fast.events[i], legacy.events[i])
			}
		}
	}
	if !bytes.Equal(fast.trace, legacy.trace) {
		t.Errorf("Chrome trace bytes diverge (%d vs %d bytes)", len(fast.trace), len(legacy.trace))
	}
	if !reflect.DeepEqual(fast.eqTraces, legacy.eqTraces) {
		t.Errorf("Equalizer per-epoch traces diverge")
		for i := range fast.eqTraces {
			if i < len(legacy.eqTraces) && !reflect.DeepEqual(fast.eqTraces[i], legacy.eqTraces[i]) {
				t.Errorf("SM %d:\nfast:   %+v\nlegacy: %+v", i, fast.eqTraces[i], legacy.eqTraces[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(fast.series, legacy.series) {
		t.Errorf("Monitor epoch series diverge:\nfast:   %+v\nlegacy: %+v", fast.series, legacy.series)
	}
}

// TestFastForwardByteIdenticalAllKernels runs every example kernel under the
// Equalizer runtime with the engine on and off and requires identical
// results, per-epoch decision traces and span telemetry.
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
			mk := func() gpu.Policy {
				e := core.New(core.EnergyMode)
				e.Record = true
				return e
			}
			tasks := []gpu.Task{{Kernel: k}}
			fast := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, true)
			legacy := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, false)
			compareCaptures(t, fast, legacy)
		})
	}
}

// TestFastForwardByteIdenticalCensusMask compares runs that record the
// per-cycle stall census — the highest-volume telemetry, which the bulk
// engine must replicate event for event: per-cycle SM interleaving, ring
// wrap and drop accounting included.
func TestFastForwardByteIdenticalCensusMask(t *testing.T) {
	mask := telemetry.MaskSpans | telemetry.MaskOf(telemetry.KindStallCensus, telemetry.KindWarpIssue)
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
			tasks := []gpu.Task{{Kernel: k}}
			fast := runCapture(t, tasks, 1, mk, mask, true)
			legacy := runCapture(t, tasks, 1, mk, mask, false)
			compareCaptures(t, fast, legacy)
		})
	}
}

// TestFastForwardByteIdenticalMonitorMulti compares a Multi fan-out of a
// static-concurrency policy and the passive Monitor, pinning the Monitor's
// accumulate-span arithmetic (sums, per-epoch series) against the per-cycle
// path.
func TestFastForwardByteIdenticalMonitorMulti(t *testing.T) {
	k, err := kernels.ByName("bp-1")
	if err != nil {
		t.Fatal(err)
	}
	k.GridBlocks = 45
	mk := func() gpu.Policy {
		return policy.Multi{policy.NewStaticBlocks(4), policy.NewMonitor()}
	}
	tasks := []gpu.Task{{Kernel: k}}
	fast := runCapture(t, tasks, 2, mk, telemetry.MaskSpans, true)
	legacy := runCapture(t, tasks, 2, mk, telemetry.MaskSpans, false)
	compareCaptures(t, fast, legacy)
}

// TestFastForwardByteIdenticalCCWS compares a CCWS run: its per-SM issue
// filter keeps the SMs on the linear-scan issue path and the policy is not
// FastForwardAware, so the engine must step every cycle — and match.
func TestFastForwardByteIdenticalCCWS(t *testing.T) {
	k, err := kernels.ByName("kmn")
	if err != nil {
		t.Fatal(err)
	}
	k.GridBlocks = 30
	mk := func() gpu.Policy { return policy.NewCCWS() }
	tasks := []gpu.Task{{Kernel: k}}
	fast := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, true)
	legacy := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, false)
	compareCaptures(t, fast, legacy)
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
	mk := func() gpu.Policy {
		e := core.New(core.EnergyMode)
		e.Record = true
		return e
	}
	fast := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, true)
	legacy := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, false)
	compareCaptures(t, fast, legacy)
}

// TestFastForwardByteIdenticalNilPolicy compares unmanaged back-to-back
// invocations: with no policy the engine has no accumulate hooks and skips
// are bounded only by machine events.
func TestFastForwardByteIdenticalNilPolicy(t *testing.T) {
	k, err := kernels.ByName("mri-q")
	if err != nil {
		t.Fatal(err)
	}
	k.GridBlocks = 30
	tasks := []gpu.Task{{Kernel: k}}
	fast := runCapture(t, tasks, 2, nil, telemetry.MaskSpans, true)
	legacy := runCapture(t, tasks, 2, nil, telemetry.MaskSpans, false)
	compareCaptures(t, fast, legacy)
}
