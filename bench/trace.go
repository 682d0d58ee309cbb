package main

import (
	"os"
	"sync"
	"time"

	"equalizer/internal/telemetry"
)

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how tracing is switched off: every call site is the same
// with and without it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span caused by parent (-1 for a root) on behalf of operation
// op and returns its index.
func (r *recorder) open(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, StartUS: us(now), DurUS: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// close ends the span open returned.
func (r *recorder) close(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].DurUS = us(now) - r.spans[i].StartUS
	r.mu.Unlock()
}

// timed records fn as one span and returns its duration.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	sp := r.open(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.close(sp)
	return d
}

// synthetic records a span that summarises repeated executions at their
// median duration, placed at the current time.
func (r *recorder) synthetic(name string, parent, op int, durUS float64) int {
	i := r.open(name, parent, op)
	if i >= 0 {
		r.mu.Lock()
		r.spans[i].DurUS = durUS
		r.mu.Unlock()
	}
	return i
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// traceLanes is the number of Chrome-trace threads spans are spread over so
// that the concurrent requests of a closed loop do not overlap on one track.
const traceLanes = 8

// writeChrome renders the runs' spans as one Chrome trace-event file: one
// process per workload, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
func writeChrome(path string, runs []*runResult) error {
	var out []telemetry.Span
	opts := telemetry.SpanOptions{ProcessNames: map[int]string{}}
	for pid, res := range runs {
		opts.ProcessNames[pid] = res.Workload
		for _, s := range res.Spans {
			tid := 0
			if s.Op >= 0 {
				tid = 1 + s.Op%traceLanes
			}
			out = append(out, telemetry.Span{
				Name: s.Name, Cat: res.Workload, PID: pid, TID: tid,
				StartUS: s.StartUS, DurUS: s.DurUS,
				Args: map[string]any{"op": s.Op, "parent": s.Parent},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeSpans(f, out, opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
