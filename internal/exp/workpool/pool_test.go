package workpool

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDoRunsTasks: every submitted task runs exactly once and Do returns
// after completion.
func TestDoRunsTasks(t *testing.T) {
	p := New(4)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func() { ran.Add(1) }); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", ran.Load())
	}
	if st := p.Stats(); st.Alive > 4 {
		t.Errorf("alive = %d, want <= 4", st.Alive)
	}
}

// TestWidthBoundsConcurrency: no more than Size tasks execute at once, and
// the pool actually reaches its width under sustained pressure.
func TestWidthBoundsConcurrency(t *testing.T) {
	const width = 3
	p := New(width)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func() { //nolint:errcheck // background ctx cannot fail
				c := cur.Add(1)
				for {
					old := peak.Load()
					if c <= old || peak.CompareAndSwap(old, c) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > width {
		t.Fatalf("peak concurrency %d exceeds width %d", got, width)
	}
	if got := peak.Load(); got < width {
		t.Errorf("peak concurrency %d never reached width %d under pressure", got, width)
	}
}

// TestGrowTakesEffect: after Resize up, the wider pool runs more tasks
// concurrently.
func TestGrowTakesEffect(t *testing.T) {
	p := New(1)
	p.Resize(4)
	block := make(chan struct{})
	var started atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func() { //nolint:errcheck // background ctx cannot fail
				started.Add(1)
				<-block
			})
		}()
	}
	waitFor(t, "4 tasks running concurrently", func() bool { return started.Load() == 4 })
	if got := p.Busy(); got != 4 {
		t.Errorf("busy = %d, want 4", got)
	}
	close(block)
	wg.Wait()
}

// TestShrinkRetiresIdleWorkersImmediately: a downsize wakes idle workers so
// it converges without new traffic.
func TestShrinkRetiresIdleWorkersImmediately(t *testing.T) {
	p := New(4)
	// Hold four tasks in flight together so all four workers are spawned;
	// trivial tasks could all be served by one worker.
	block := make(chan struct{})
	var started atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func() { //nolint:errcheck // background ctx cannot fail
				started.Add(1)
				<-block
			})
		}()
	}
	waitFor(t, "4 tasks running concurrently", func() bool { return started.Load() == 4 })
	close(block)
	wg.Wait()
	waitFor(t, "workers idle", func() bool {
		st := p.Stats()
		return st.Busy == 0 && st.Idle == st.Alive
	})
	before := p.Stats().Alive
	if before != 4 {
		t.Fatalf("alive = %d after 4 concurrent tasks, want 4", before)
	}
	p.Resize(1)
	waitFor(t, "pool shrunk to 1", func() bool { return p.Stats().Alive == 1 })
	if st := p.Stats(); st.Retired != uint64(before-1) {
		t.Errorf("retired = %d, want %d", st.Retired, before-1)
	}
}

// TestShrinkNeverInterruptsInFlightTask: a running task survives a Resize
// below the number of busy workers and completes normally.
func TestShrinkNeverInterruptsInFlightTask(t *testing.T) {
	p := New(2)
	block := make(chan struct{})
	var started atomic.Int64
	var finished atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func() { //nolint:errcheck // background ctx cannot fail
				started.Add(1)
				<-block
				finished.Add(1)
			})
		}()
	}
	waitFor(t, "2 tasks in flight", func() bool { return started.Load() == 2 })
	p.Resize(1)
	if got := finished.Load(); got != 0 {
		t.Fatalf("shrink interrupted tasks: finished = %d", got)
	}
	close(block)
	wg.Wait()
	if finished.Load() != 2 {
		t.Fatalf("finished = %d, want 2", finished.Load())
	}
	// The excess worker retires at its task boundary.
	waitFor(t, "pool at width 1", func() bool { return p.Stats().Alive <= 1 })
}

// TestResizeStormUnderLoad: continuous up/down resizing while tasks flow
// loses no task and ends at the final width (run under -race in CI).
func TestResizeStormUnderLoad(t *testing.T) {
	p := New(2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		sizes := []int{1, 5, 2, 8, 1, 3}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Resize(sizes[i%len(sizes)])
			time.Sleep(time.Millisecond)
		}
	}()
	const n = 300
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func() { ran.Add(1) }) //nolint:errcheck // background ctx cannot fail
		}()
	}
	wg.Wait()
	close(stop)
	<-stopped // no storm Resize may land after the final one
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
	p.Resize(1)
	waitFor(t, "storm settled to 1 worker", func() bool { return p.Stats().Alive <= 1 })
}

// TestDoCanceledWhileQueued: a submitter whose context ends before pickup
// gets the context error and its closure never runs.
func TestDoCanceledWhileQueued(t *testing.T) {
	p := New(1)
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Do(context.Background(), func() { <-block }) //nolint:errcheck // background ctx cannot fail
	}()
	waitFor(t, "worker busy", func() bool { return p.Busy() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	ranSecond := false
	go func() {
		errc <- p.Do(ctx, func() { ranSecond = true })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	close(block)
	wg.Wait()
	// Give the worker a chance to (wrongly) pick the abandoned task up.
	p.Do(context.Background(), func() {}) //nolint:errcheck // background ctx cannot fail
	if ranSecond {
		t.Error("abandoned task ran after cancellation")
	}
}

// TestDoPreCanceledContext: an already-ended context never submits.
func TestDoPreCanceledContext(t *testing.T) {
	p := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Do(ctx, func() { t.Error("task ran") }); err != context.Canceled {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
}

// TestResizeClampsAndCounts: widths below one clamp to one; no-op resizes
// are not counted.
func TestResizeClampsAndCounts(t *testing.T) {
	p := New(0)
	if got := p.Size(); got != 1 {
		t.Fatalf("New(0) size = %d, want 1", got)
	}
	if got := p.Resize(-3); got != 1 {
		t.Fatalf("Resize(-3) = %d, want 1", got)
	}
	if st := p.Stats(); st.Resizes != 0 {
		t.Errorf("no-op resize counted: %d", st.Resizes)
	}
	p.Resize(7)
	if st := p.Stats(); st.Size != 7 || st.Resizes != 1 {
		t.Errorf("stats after Resize(7): %+v", st)
	}
}
