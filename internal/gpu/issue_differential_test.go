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

// The bitset issue path's contract is byte-identity with the linear scan:
// whichever of the two an SM issues from, a run must produce the same Result,
// the same telemetry event stream (and Chrome trace bytes), and the same
// per-epoch Equalizer decisions. These tests drive run pairs through every
// example kernel and compare everything observable. The external test
// package lets them compose gpu with the policies that depend on it. (The
// tests keep the TestFastForward... names they were given when the bitset
// path arrived together with the since-deleted window skipping.)

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

// useScan makes every SM of m issue from the linear scan, the reference the
// bitset path is compared against.
func useScan(m *gpu.Machine) {
	for i := 0; i < m.NumSMs(); i++ {
		m.SM(i).SetFastIssue(false)
	}
}

// runCapture executes invocations of tasks on a fresh machine issuing from
// the bitset path or the scan and captures every observable output.
func runCapture(t *testing.T, tasks []gpu.Task, invocations int,
	mkPolicy func() gpu.Policy, mask telemetry.Mask, scan bool) capture {
	t.Helper()
	var pol gpu.Policy
	if mkPolicy != nil {
		pol = mkPolicy()
	}
	m := gpu.MustNew(config.Default(), power.Default(), pol)
	if scan {
		useScan(m)
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
	if !reflect.DeepEqual(bitset.series, scan.series) {
		t.Errorf("Monitor epoch series diverge:\nbitset: %+v\nscan:   %+v", bitset.series, scan.series)
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
			mk := func() gpu.Policy {
				e := core.New(core.EnergyMode)
				e.Record = true
				return e
			}
			tasks := []gpu.Task{{Kernel: k}}
			bitset := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, false)
			scan := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, true)
			compareCaptures(t, bitset, scan)
		})
	}
}

// TestFastForwardByteIdenticalCensusMask compares runs that record the
// per-cycle stall census and every warp issue — the highest-volume
// telemetry, which the popcount census and find-first-set selection must
// replicate event for event, ring wrap and drop accounting included.
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
			bitset := runCapture(t, tasks, 1, mk, mask, false)
			scan := runCapture(t, tasks, 1, mk, mask, true)
			compareCaptures(t, bitset, scan)
		})
	}
}

// TestFastForwardByteIdenticalMonitorMulti compares a Multi fan-out of a
// static-concurrency policy and the passive Monitor: the Monitor's per-epoch
// series is built from the census snapshots, so it pins the popcount census
// against the scan's over two back-to-back invocations.
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
	bitset := runCapture(t, tasks, 2, mk, telemetry.MaskSpans, false)
	scan := runCapture(t, tasks, 2, mk, telemetry.MaskSpans, true)
	compareCaptures(t, bitset, scan)
}

// TestFastForwardByteIdenticalCCWS compares a CCWS run: its per-SM issue
// filter sends every cycle to the scan even with the bitset path enabled
// (gap-queue pushes and mask invalidation still run), and must match an SM
// that has it disabled.
func TestFastForwardByteIdenticalCCWS(t *testing.T) {
	k, err := kernels.ByName("kmn")
	if err != nil {
		t.Fatal(err)
	}
	k.GridBlocks = 30
	mk := func() gpu.Policy { return policy.NewCCWS() }
	tasks := []gpu.Task{{Kernel: k}}
	bitset := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, false)
	scan := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, true)
	compareCaptures(t, bitset, scan)
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
	bitset := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, false)
	scan := runCapture(t, tasks, 1, mk, telemetry.MaskSpans, true)
	compareCaptures(t, bitset, scan)
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
	tasks := []gpu.Task{{Kernel: k}}
	bitset := runCapture(t, tasks, 2, nil, telemetry.MaskSpans, false)
	scan := runCapture(t, tasks, 2, nil, telemetry.MaskSpans, true)
	compareCaptures(t, bitset, scan)
}

// TestScanIsTheIssuePathBeyond64Warps runs a machine whose warp budget does
// not fit the 64-bit scheduler masks: the scan is then the production issue
// path, and no other test steps it without the bitset bookkeeping around it.
func TestScanIsTheIssuePathBeyond64Warps(t *testing.T) {
	cfg := config.Default()
	cfg.MaxWarpsPerSM = 96
	m := gpu.MustNew(cfg, power.Default(), core.New(core.EnergyMode))
	for i := 0; i < m.NumSMs(); i++ {
		if m.SM(i).FastIssueEnabled() {
			t.Fatalf("SM %d: bitset issue enabled with %d warp slots", i, cfg.MaxWarpsPerSM)
		}
	}
	// histo-2 has 24-warp blocks, three to an SM once the budget allows:
	// warp slots past the 64th are really occupied.
	k, err := kernels.ByName("histo-2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunKernel(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resident := m.MaxResidentBlocksFor(0) * k.Wcta; resident <= 64 {
		t.Fatalf("kernel occupies %d warp slots per SM; the case needs more than 64", resident)
	}
	if res.SMCycles == 0 || res.IPC <= 0 {
		t.Fatalf("run did no work: %+v", res)
	}
	if m.BlocksRemaining() != 0 {
		t.Fatalf("%d blocks never dispatched", m.BlocksRemaining())
	}
	for i := 0; i < m.NumSMs(); i++ {
		if s := m.SM(i); !s.Idle() || s.FastIssueEnabled() {
			t.Fatalf("SM %d: idle=%v fastIssue=%v after the run", i, s.Idle(), s.FastIssueEnabled())
		}
	}
}
