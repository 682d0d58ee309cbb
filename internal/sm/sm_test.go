package sm

import (
	"testing"

	"equalizer/internal/cache"
	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/telemetry"
	"equalizer/internal/warp"
)

const period = clock.Time(1000)

func testCfg() config.GPU {
	g := config.Default()
	g.NumSMs = 1
	return g
}

// runSM drives the SM alone, acting as a perfect memory system that returns
// every miss after memLatency SM cycles. It returns the number of cycles
// until the SM goes idle (or maxCycles).
func runSM(s *SM, memLatency int, maxCycles int) int {
	now := clock.Time(0)
	for c := 0; c < maxCycles; c++ {
		now += period
		s.Step(now, period)
		if r, ok := s.TakeOutbox(); ok {
			s.DeliverLine(r.Line, now+clock.Time(memLatency)*period)
		}
		if s.Idle() {
			return c + 1
		}
	}
	return maxCycles
}

func TestLaunchAndFinishComputeBlock(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 10, ALUGap: 2}}}
	if !s.WantsBlock(8) {
		t.Fatal("fresh SM refuses a block")
	}
	s.LaunchBlock(prof, 0, 8)
	if s.ResidentBlocks() != 1 || s.LiveWarps() != 8 {
		t.Fatalf("resident=%d live=%d, want 1/8", s.ResidentBlocks(), s.LiveWarps())
	}
	cycles := runSM(s, 100, 10000)
	if !s.Idle() {
		t.Fatal("SM not idle after compute block")
	}
	if s.Stats().BlocksFinished != 1 {
		t.Fatalf("blocks finished = %d, want 1", s.Stats().BlocksFinished)
	}
	// 8 warps x 10 ALU instructions at 1 issue/cycle needs >= 80 cycles.
	if got := s.Stats().IssuedALU; got != 80 {
		t.Fatalf("issued ALU = %d, want 80", got)
	}
	if cycles < 80 {
		t.Fatalf("finished in %d cycles, impossible under issue width", cycles)
	}
}

func TestComputeKernelShowsXALUPressure(t *testing.T) {
	s := New(testCfg(), 0)
	// Dense ALU stream with tiny dependency gaps: many warps ready at once.
	prof := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 400, ALUGap: 1}}}
	for b := 0; b < 6; b++ {
		s.LaunchBlock(prof, b, 8)
	}
	var xaluSum, samples int
	now := clock.Time(0)
	for c := 0; c < 2000; c++ {
		now += period
		s.Step(now, period)
		if c >= 100 {
			xaluSum += s.Snapshot().XALU
			samples++
		}
	}
	avg := float64(xaluSum) / float64(samples)
	if avg < 8 {
		t.Fatalf("mean XALU = %.1f, want heavy ALU pressure (>= 8, Wcta)", avg)
	}
}

func TestMemoryBackpressureShowsXMEM(t *testing.T) {
	s := New(testCfg(), 0)
	// Pure streaming loads; the test never delivers responses and never
	// drains the outbox, so the LSU clogs and ready warps become Xmem.
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 64, MemEvery: 1, Pattern: warp.Streaming}},
	}
	for b := 0; b < 6; b++ {
		s.LaunchBlock(prof, b, 8)
	}
	now := clock.Time(0)
	for c := 0; c < 300; c++ {
		now += period
		s.Step(now, period)
	}
	if got := s.Snapshot().XMEM; got < 8 {
		t.Fatalf("XMEM = %d under full back-pressure, want >= 8", got)
	}
}

func TestL1HitPathWakesWarp(t *testing.T) {
	s := New(testCfg(), 0)
	// One warp, working set of 1 line accessed repeatedly: first access
	// misses, the rest hit.
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 10, MemEvery: 1, Pattern: warp.PrivateReuse, WorkingSetLines: 1}},
	}
	s.LaunchBlock(prof, 0, 1)
	runSM(s, 200, 20000)
	if !s.Idle() {
		t.Fatal("warp never finished")
	}
	st := s.l1.Stats()
	if st.Misses != 1 {
		t.Fatalf("L1 misses = %d, want 1", st.Misses)
	}
	if st.Hits != 9 {
		t.Fatalf("L1 hits = %d, want 9", st.Hits)
	}
}

func TestBarrierSynchronizesBlock(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{
		LineBytes: 128,
		Phases: []warp.Phase{
			{Insts: 5, ALUGap: 2, Barrier: true},
			{Insts: 3, ALUGap: 2},
		},
	}
	s.LaunchBlock(prof, 0, 4)
	runSM(s, 100, 10000)
	if !s.Idle() {
		t.Fatal("block with barrier never finished")
	}
	if s.Stats().BarrierReleases != 1 {
		t.Fatalf("barrier releases = %d, want 1", s.Stats().BarrierReleases)
	}
}

func TestSetTargetBlocksPausesYoungest(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 5000, ALUGap: 4}}}
	for b := 0; b < 4; b++ {
		s.LaunchBlock(prof, b, 8)
	}
	s.SetTargetBlocks(2)
	if s.activeBlocks != 2 {
		t.Fatalf("active blocks = %d after throttle, want 2", s.activeBlocks)
	}
	if s.ResidentBlocks() != 4 {
		t.Fatalf("resident blocks = %d, want 4 (paused stay resident)", s.ResidentBlocks())
	}
	// Paused warps are excluded from the census.
	now := clock.Time(1000)
	s.Step(now, period)
	if a := s.Snapshot().Active; a != 16 {
		t.Fatalf("active warps = %d with 2 active blocks, want 16", a)
	}
	s.SetTargetBlocks(4)
	if s.activeBlocks != 4 {
		t.Fatalf("active blocks = %d after unpause, want 4", s.activeBlocks)
	}
}

func TestPausedBlockResumesWhenActiveFinishes(t *testing.T) {
	s := New(testCfg(), 0)
	short := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 4, ALUGap: 1}}}
	long := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 4000, ALUGap: 1}}}
	s.LaunchBlock(short, 0, 8)
	s.LaunchBlock(long, 1, 8)
	s.SetTargetBlocks(1) // pauses the long block (youngest)
	if s.activeBlocks != 1 {
		t.Fatal("throttle did not pause")
	}
	now := clock.Time(0)
	for c := 0; c < 200 && s.Stats().BlocksFinished == 0; c++ {
		now += period
		s.Step(now, period)
	}
	if s.Stats().BlocksFinished != 1 {
		t.Fatal("short block never finished")
	}
	if s.activeBlocks != 1 || s.ResidentBlocks() != 1 {
		t.Fatalf("active=%d resident=%d after finish, want 1/1 (long block unpaused)",
			s.activeBlocks, s.ResidentBlocks())
	}
}

func TestWantsBlockHonoursTarget(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 100, ALUGap: 4}}}
	s.SetTargetBlocks(1)
	s.LaunchBlock(prof, 0, 8)
	if s.WantsBlock(8) {
		t.Fatal("SM wants a second block above its concurrency target")
	}
	s.SetTargetBlocks(2)
	if !s.WantsBlock(8) {
		t.Fatal("SM refuses a block with headroom")
	}
}

func TestWantsBlockHonoursWarpSlots(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 100, ALUGap: 4}}}
	// 2 blocks x 24 warps = 48 warps: full.
	s.LaunchBlock(prof, 0, 24)
	s.LaunchBlock(prof, 1, 24)
	if s.WantsBlock(1) {
		t.Fatal("SM wants a block with no free warp slots")
	}
}

// TestIssueFilterThrottlesMemory checks the memory-issue mask: a vetoed warp
// never issues to the LSU and is counted as waiting, not as Xmem.
func TestIssueFilterThrottlesMemory(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 8, MemEvery: 1, Pattern: warp.Streaming}},
	}
	s.LaunchBlock(prof, 0, 4)
	s.SetMemIssueMask(0) // veto all
	now := clock.Time(0)
	for c := 0; c < 50; c++ {
		now += period
		s.Step(now, period)
	}
	if got := s.Stats().IssuedMEM; got != 0 {
		t.Fatalf("issued %d memory instructions under a full veto", got)
	}
	if snap := s.Snapshot(); snap.Waiting != 4 || snap.XMEM != 0 {
		t.Fatalf("census under a full veto = %+v, want 4 waiting and no Xmem", snap)
	}
	s.SetMemIssueMask(^uint64(0))
	now += period
	s.Step(now, period)
	if got := s.Stats().IssuedMEM; got != 1 {
		t.Fatalf("issued %d memory instructions after veto removal, want 1", got)
	}
}

func TestOutboxBackpressure(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 4, MemEvery: 1, Pattern: warp.Streaming}},
	}
	s.LaunchBlock(prof, 0, 1)
	now := clock.Time(0)
	for c := 0; c < 10 && !s.OutboxFull(); c++ {
		now += period
		s.Step(now, period)
	}
	if !s.OutboxFull() {
		t.Fatal("streaming miss never reached the outbox")
	}
	r, ok := s.TakeOutbox()
	if !ok || r.SM != 0 {
		t.Fatalf("TakeOutbox = %+v,%v", r, ok)
	}
	if s.OutboxFull() {
		t.Fatal("outbox still full after take")
	}
	if _, ok := s.TakeOutbox(); ok {
		t.Fatal("second TakeOutbox succeeded")
	}
}

func TestDeliverLineWakesAllWaiters(t *testing.T) {
	s := New(testCfg(), 0)
	// Several warps of a block share one line (private reuse would separate
	// them, so use SharedReadOnly with a single line).
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 1, MemEvery: 1, Pattern: warp.SharedReadOnly, SharedLines: 1}},
	}
	s.LaunchBlock(prof, 0, 4)
	cycles := runSM(s, 50, 5000)
	if !s.Idle() {
		t.Fatalf("warps never woke (ran %d cycles)", cycles)
	}
	st := s.l1.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (merged waiters)", st.Misses)
	}
	if st.Merged == 0 && st.Hits == 0 {
		t.Fatal("no merge or hit recorded for shared line")
	}
}

func TestSnapshotWaitingDominatedKernel(t *testing.T) {
	s := New(testCfg(), 0)
	// Long memory latency and low concurrency: most warps wait.
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 40, MemEvery: 2, ALUGap: 1, Pattern: warp.Streaming}},
	}
	s.LaunchBlock(prof, 0, 8)
	var waitSum, samples int
	now := clock.Time(0)
	for c := 0; c < 400; c++ {
		now += period
		s.Step(now, period)
		if r, ok := s.TakeOutbox(); ok {
			s.DeliverLine(r.Line, now+400*period)
		}
		if c > 50 && !s.Idle() {
			waitSum += s.Snapshot().Waiting
			samples++
		}
	}
	if samples == 0 {
		t.Skip("kernel finished too quickly to sample")
	}
	if avg := float64(waitSum) / float64(samples); avg < 4 {
		t.Fatalf("mean waiting = %.1f, want latency-bound (>= 4 of 8 warps)", avg)
	}
}

func TestResetClearsState(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 100, MemEvery: 2, Pattern: warp.Streaming}},
	}
	s.LaunchBlock(prof, 0, 8)
	now := clock.Time(0)
	for c := 0; c < 20; c++ {
		now += period
		s.Step(now, period)
	}
	s.Reset(true)
	if !s.Idle() {
		t.Fatal("SM not idle after reset")
	}
	if s.Stats().Cycles != 0 {
		t.Fatal("stats survived reset(true)")
	}
	if s.TargetBlocks() != testCfg().MaxBlocksPerSM {
		t.Fatal("target blocks not restored")
	}
	if !s.WantsBlock(48) {
		t.Fatal("warp slots not recovered by reset")
	}
}

func TestLaunchWithoutCapacityPanics(t *testing.T) {
	s := New(testCfg(), 0)
	prof := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{{Insts: 1, ALUGap: 1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("LaunchBlock over capacity did not panic")
		}
	}()
	for b := 0; b < 9; b++ {
		s.LaunchBlock(prof, b, 6)
	}
}

func TestNewPanicsBeyondTheWarpLimit(t *testing.T) {
	cfg := testCfg()
	cfg.MaxWarpsPerSM = config.MaxWarpsPerSMLimit + 1
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted more warp slots than the scheduler masks hold")
		}
	}()
	New(cfg, 0)
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateWaiting: "waiting", StateXALU: "xalu", StateXMEM: "xmem",
		StateIssued: "issued", StateOthers: "others", StatePaused: "paused",
		StateUnaccounted: "unaccounted",
	} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestIPCStat(t *testing.T) {
	var st Stats
	if st.IPC() != 0 {
		t.Fatal("IPC of zero stats should be 0")
	}
	st.Cycles = 100
	st.IssuedALU = 60
	st.IssuedMEM = 20
	if got := st.IPC(); got != 0.8 {
		t.Fatalf("IPC = %g, want 0.8", got)
	}
}

func TestUncoalescedAccessOccupiesLSULonger(t *testing.T) {
	run := func(extra int) uint64 {
		s := New(testCfg(), 0)
		prof := &warp.Profile{
			LineBytes: 128,
			Phases: []warp.Phase{{
				Insts: 8, MemEvery: 1, Pattern: warp.PrivateReuse,
				WorkingSetLines: 2, ExtraLines: extra,
			}},
		}
		s.LaunchBlock(prof, 0, 1)
		runSM(s, 40, 20000)
		return s.l1.Stats().Accesses
	}
	coalesced := run(0)
	divergent := run(3)
	if divergent <= coalesced {
		t.Fatalf("divergent accesses (%d) not greater than coalesced (%d)", divergent, coalesced)
	}
}

var _ = cache.Hit // keep the import for the listener test below

type recordingListener struct {
	accesses int
	evicts   int
}

func (r *recordingListener) OnL1Access(warpSlot int, line cache.Addr, res cache.AccessResult) {
	r.accesses++
}
func (r *recordingListener) OnL1Evict(line cache.Addr) { r.evicts++ }

func TestL1ListenerObservesTraffic(t *testing.T) {
	s := New(testCfg(), 0)
	l := &recordingListener{}
	s.SetL1Listener(l)
	// Working set big enough to evict: 64 sets x 4 ways = 256 lines; one
	// warp with 300-line working set thrashes.
	prof := &warp.Profile{
		LineBytes: 128,
		Phases:    []warp.Phase{{Insts: 600, MemEvery: 1, Pattern: warp.PrivateReuse, WorkingSetLines: 300}},
	}
	s.LaunchBlock(prof, 0, 1)
	runSM(s, 10, 100000)
	if l.accesses == 0 {
		t.Fatal("listener saw no accesses")
	}
	if l.evicts == 0 {
		t.Fatal("listener saw no evictions despite thrashing working set")
	}
}

// TestIdleSMStep steps an SM that holds no block for longer than its
// calendars span, then checks that a block launched afterwards runs exactly
// as on an SM that launched it before its first cycle.
func TestIdleSMStep(t *testing.T) {
	prof := &warp.Profile{LineBytes: 128, Phases: []warp.Phase{
		{Insts: 120, MemEvery: 3, ALUGap: 2, Pattern: warp.PrivateReuse, WorkingSetLines: 4},
		{Insts: 60, MemEvery: 4, ALUGap: 3, Pattern: warp.Streaming, Barrier: true},
	}}
	// run steps a fresh SM idle for idle cycles, launches the block and
	// runs it to completion behind a memory that answers every miss 100
	// cycles later. It returns the census events of the launched block with
	// times relative to its launch, and the SM's stats.
	run := func(idle int) ([]telemetry.Event, Stats) {
		s := New(testCfg(), 0)
		bus := telemetry.NewBus(1<<16, telemetry.MaskOf(telemetry.KindStallCensus))
		s.SetProbe(bus)
		now := clock.Time(0)
		for c := 0; c < idle; c++ {
			now += period
			s.Step(now, period)
		}
		st := s.Stats()
		if st.Cycles != uint64(idle) || st.ActiveCycles != 0 {
			t.Fatalf("after %d idle cycles: Cycles=%d ActiveCycles=%d, want %d and 0",
				idle, st.Cycles, st.ActiveCycles, idle)
		}
		if s.Snapshot() != (Snapshot{}) {
			t.Fatalf("idle snapshot = %+v, want zero", s.Snapshot())
		}
		census := bus.Events()
		if len(census) != idle {
			t.Fatalf("%d census events for %d idle cycles", len(census), idle)
		}
		for i, e := range census {
			if e.TimePS != int64(i+1)*int64(period) || e.A != 0 || e.B != 0 {
				t.Fatalf("idle census %d = %+v, want zero at %d ps", i, e, int64(i+1)*int64(period))
			}
		}
		bus.Reset()

		launch := now
		s.LaunchBlock(prof, 0, 8)
		for c := 0; c < 100_000 && !s.Idle(); c++ {
			now += period
			s.Step(now, period)
			if r, ok := s.TakeOutbox(); ok {
				s.DeliverLine(r.Line, now+100*period)
			}
		}
		if !s.Idle() {
			t.Fatalf("block launched after %d idle cycles never finished", idle)
		}
		census = bus.Events()
		for i := range census {
			census[i].TimePS -= int64(launch)
		}
		st = s.Stats()
		st.Cycles = 0
		return census, st
	}

	wantCensus, wantStats := run(0)
	gotCensus, gotStats := run(wakeCalendarBuckets + 37)
	if gotStats != wantStats {
		t.Fatalf("stats after an idle prefix = %+v, want %+v", gotStats, wantStats)
	}
	if len(gotCensus) != len(wantCensus) {
		t.Fatalf("%d census events after an idle prefix, want %d", len(gotCensus), len(wantCensus))
	}
	for i := range wantCensus {
		if gotCensus[i] != wantCensus[i] {
			t.Fatalf("census %d after an idle prefix = %+v, want %+v", i, gotCensus[i], wantCensus[i])
		}
	}
}
