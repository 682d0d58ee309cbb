package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"equalizer/internal/config"
	"equalizer/internal/kernels"
	"equalizer/internal/telemetry"
)

// testKernel returns a small kernel for cancellation tests.
func testKernel(t *testing.T) kernels.Kernel {
	t.Helper()
	k, err := kernels.ByName("cutcp")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRunCtxCanceledBeforeStart: a request whose context is already dead
// must not consume a simulation worker at all.
func TestRunCtxCanceledBeforeStart(t *testing.T) {
	h := New(Options{GridScale: 0.05})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, src, err := h.RunCtx(ctx, testKernel(t), Baseline())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src != SourceNone {
		t.Errorf("source = %q, want none", src)
	}
	st := h.SchedulerStats()
	if st.Simulated != 0 {
		t.Errorf("canceled request simulated %d runs, want 0", st.Simulated)
	}
	if st.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", st.Canceled)
	}
}

// TestRunCtxCancellationDoesNotPoisonMemo: an owner that aborts removes its
// memo entry, so the next request for the same key recomputes successfully
// instead of inheriting context.Canceled forever.
func TestRunCtxCancellationDoesNotPoisonMemo(t *testing.T) {
	h := New(Options{GridScale: 0.05})
	k := testKernel(t)

	// Deadline already expired: the owner path aborts at the first
	// invocation-boundary check inside simulate.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := h.RunCtx(ctx, k, Baseline()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// Same key with a live context must heal.
	tot, src, err := h.RunCtx(context.Background(), k, Baseline())
	if err != nil {
		t.Fatalf("post-cancellation rerun failed: %v", err)
	}
	if src != SourceSim {
		t.Errorf("source = %q, want sim (memo must not hold the canceled attempt)", src)
	}
	if tot.TimePS <= 0 {
		t.Errorf("TimePS = %d, want > 0", tot.TimePS)
	}
}

// TestRunCtxWaiterCancellation: a waiter abandoning a shared computation
// returns promptly with its own context error while the owner's result stays
// intact for later requesters.
func TestRunCtxWaiterCancellation(t *testing.T) {
	h := New(Options{GridScale: 0.05})
	k := testKernel(t)

	var wg sync.WaitGroup
	wg.Add(1)
	ownerDone := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, _, err := h.RunCtx(context.Background(), k, Baseline())
		ownerDone <- err
	}()

	// Give the owner a moment to claim the memo entry, then join as a
	// waiter with a short deadline. Either outcome is legal — the waiter
	// may win a memo hit if the owner is already done — but a timed-out
	// waiter must report its own cancellation.
	time.Sleep(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, _, err := h.RunCtx(ctx, k, Baseline())
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter err = %v, want nil or context.DeadlineExceeded", err)
	}

	wg.Wait()
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner failed: %v", err)
	}
	// The owner's result is shared with later requesters.
	if _, src, err := h.RunCtx(context.Background(), k, Baseline()); err != nil || src != SourceMemo {
		t.Errorf("follow-up = (%q, %v), want (memo, nil)", src, err)
	}
}

// TestRunCtxErrorNotMemoized: a transient simulation failure is not held in
// the memo for the process lifetime — the next request for the same key
// retries and succeeds.
func TestRunCtxErrorNotMemoized(t *testing.T) {
	h := New(Options{GridScale: 0.05})
	k := testKernel(t)
	boom := errors.New("transient fault")
	calls := 0
	h.simFault = func() error {
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	}

	if _, _, err := h.RunCtx(context.Background(), k, Baseline()); !errors.Is(err, boom) {
		t.Fatalf("first run err = %v, want injected fault", err)
	}
	tot, src, err := h.RunCtx(context.Background(), k, Baseline())
	if err != nil {
		t.Fatalf("retry after transient fault failed: %v", err)
	}
	if src != SourceSim {
		t.Errorf("retry source = %q, want sim (memo must not hold the failed attempt)", src)
	}
	if tot.TimePS <= 0 {
		t.Errorf("TimePS = %d, want > 0", tot.TimePS)
	}
	if st := h.SchedulerStats(); st.Canceled != 0 {
		t.Errorf("canceled counter = %d, want 0 (fault is not a cancellation)", st.Canceled)
	}
}

// TestSimulatePanicIsAnError: a simulator panic on a pool worker fails its
// run with an error instead of ending the process. The memo does not keep
// the failure, the pool goes on serving, and exp_sim_panics_total counts it.
func TestSimulatePanicIsAnError(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := New(Options{GridScale: 0.05, Parallelism: 1, Registry: reg})
	k := testKernel(t)
	var calls atomic.Int32
	h.simFault = func() error {
		if calls.Add(1) == 1 {
			panic("injected simulator fault")
		}
		return nil
	}

	var err error
	if perr := h.Pool().Do(context.Background(), func() {
		_, _, err = h.RunCtx(context.Background(), k, Baseline())
	}); perr != nil {
		t.Fatal(perr)
	}
	if err == nil || !strings.Contains(err.Error(), "injected simulator fault") {
		t.Fatalf("panicking run err = %v, want an error naming the panic", err)
	}

	tot, src, err := h.RunCtx(context.Background(), k, Baseline())
	if err != nil || src != SourceSim || tot.TimePS <= 0 {
		t.Fatalf("rerun = (%q, %d ps, %v), want a fresh simulation (memo must not hold the panic)", src, tot.TimePS, err)
	}

	done := make(chan struct{})
	go func() {
		h.Prefetch([]RunRequest{{k, Baseline()}, {k, StaticVF(config.VFLow, config.VFNormal)}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Prefetch after the panic did not finish")
	}

	if got := reg.Counter("exp_sim_panics_total", "", nil).Value(); got != 1 {
		t.Errorf("exp_sim_panics_total = %d, want 1", got)
	}
	if st := h.SchedulerStats(); st.Panics != 1 || st.Canceled != 0 {
		t.Errorf("stats panics=%d canceled=%d, want 1 and 0", st.Panics, st.Canceled)
	}
}

// TestRunCtxStageTiming: an injected clock populates the exp_stage_seconds
// histograms without changing results.
func TestRunCtxStageTiming(t *testing.T) {
	var fake int64
	h := New(Options{GridScale: 0.05, Now: func() int64 { fake += 1e6; return fake }})
	k := testKernel(t)
	if _, _, err := h.RunCtx(context.Background(), k, Baseline()); err != nil {
		t.Fatal(err)
	}
	if h.stageSim.Count() != 1 {
		t.Errorf("simulate stage observations = %d, want 1", h.stageSim.Count())
	}
	if h.stageSim.Sum() <= 0 {
		t.Errorf("simulate stage sum = %v, want > 0", h.stageSim.Sum())
	}
}
