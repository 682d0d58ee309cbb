package service

import (
	"sync"
	"time"

	"equalizer/internal/telemetry"
)

// StageTiming is one stage of a request's execution, offset-relative to the
// request start so traces can be rendered as nested spans.
type StageTiming struct {
	Stage   string `json:"stage"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// RequestTrace is one entry of the /debug/requests ring buffer: everything
// the service learned about a request, keyed by its request ID. It is a
// plain copyable value so dumps round-trip through JSON.
type RequestTrace struct {
	ID            string        `json:"id"`
	Method        string        `json:"method"`
	Path          string        `json:"path"`
	Kernel        string        `json:"kernel,omitempty"`
	Policy        string        `json:"policy,omitempty"`
	Cells         int           `json:"cells,omitempty"`
	StartUnixNano int64         `json:"start_unix_nano"`
	DurNS         int64         `json:"dur_ns"`
	Status        int           `json:"status"`
	Source        string        `json:"source,omitempty"`
	Err           string        `json:"error,omitempty"`
	Stages        []StageTiming `json:"stages,omitempty"`
}

// activeTrace accumulates a RequestTrace while its request is in flight;
// the mutex lives here so the finished trace stays a copyable value. Sweep
// cells append stages concurrently.
type activeTrace struct {
	mu        sync.Mutex
	t         RequestTrace
	startWall time.Time
}

// newActiveTrace starts a trace for one request.
func newActiveTrace(id, method, path string, start time.Time) *activeTrace {
	return &activeTrace{
		t:         RequestTrace{ID: id, Method: method, Path: path, StartUnixNano: start.UnixNano()},
		startWall: start,
	}
}

// since converts an absolute instant into an offset from the request start.
func (a *activeTrace) since(at time.Time) time.Duration {
	return at.Sub(a.startWall)
}

// addStage appends one stage timing. Safe for concurrent use.
func (a *activeTrace) addStage(stage string, start, dur time.Duration) {
	a.mu.Lock()
	a.t.Stages = append(a.t.Stages, StageTiming{Stage: stage, StartNS: int64(start), DurNS: int64(dur)})
	a.mu.Unlock()
}

// set applies f to the trace under the lock.
func (a *activeTrace) set(f func(*RequestTrace)) {
	a.mu.Lock()
	f(&a.t)
	a.mu.Unlock()
}

// finish stamps the terminal status and duration and returns the completed
// value.
func (a *activeTrace) finish(status int, err error, end time.Time) RequestTrace {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.t.Status = status
	a.t.DurNS = int64(end.Sub(a.startWall))
	if err != nil {
		a.t.Err = err.Error()
	}
	return a.t
}

// traceRing is a fixed-capacity ring of completed request traces.
type traceRing struct {
	mu    sync.Mutex
	buf   []RequestTrace
	used  []bool
	next  int
	total uint64
}

func newTraceRing(capacity int) *traceRing {
	if capacity <= 0 {
		capacity = 256
	}
	return &traceRing{buf: make([]RequestTrace, capacity), used: make([]bool, capacity)}
}

func (r *traceRing) add(t RequestTrace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.used[r.next] = true
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// snapshot returns the retained traces oldest-first.
func (r *traceRing) snapshot() []RequestTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestTrace, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		j := (r.next + i) % len(r.buf)
		if r.used[j] {
			out = append(out, r.buf[j])
		}
	}
	return out
}

// TracesToChromeSpans converts request traces into generic Chrome spans:
// each request is a top-level span on the "eqsimd" process with its stages
// nested below it by time containment. Lanes (thread IDs) are assigned
// greedily so overlapping requests render side by side.
func TracesToChromeSpans(traces []RequestTrace) ([]telemetry.Span, telemetry.SpanOptions) {
	opts := telemetry.SpanOptions{
		ProcessNames: map[int]string{1: "eqsimd"},
		ThreadNames:  map[int64]string{},
	}
	if len(traces) == 0 {
		return nil, opts
	}
	base := traces[0].StartUnixNano
	for _, t := range traces {
		if t.StartUnixNano < base {
			base = t.StartUnixNano
		}
	}
	// Greedy lane assignment: a request takes the first lane whose last
	// span ended before it starts.
	var laneEnd []int64
	spans := make([]telemetry.Span, 0, len(traces)*2)
	usec := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, t := range traces {
		start := t.StartUnixNano - base
		end := start + t.DurNS
		lane := -1
		for i, e := range laneEnd {
			if e <= start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
			opts.ThreadNames[telemetry.ThreadKey(1, lane)] = "requests"
		}
		laneEnd[lane] = end
		args := map[string]any{"id": t.ID, "status": t.Status}
		if t.Kernel != "" {
			args["kernel"] = t.Kernel
		}
		if t.Policy != "" {
			args["policy"] = t.Policy
		}
		if t.Source != "" {
			args["source"] = t.Source
		}
		if t.Err != "" {
			args["error"] = t.Err
		}
		spans = append(spans, telemetry.Span{
			Name: t.Method + " " + t.Path, Cat: "request",
			PID: 1, TID: lane,
			StartUS: usec(start), DurUS: usec(t.DurNS), Args: args,
		})
		for _, st := range t.Stages {
			spans = append(spans, telemetry.Span{
				Name: st.Stage, Cat: "stage",
				PID: 1, TID: lane,
				StartUS: usec(start + st.StartNS), DurUS: usec(st.DurNS),
				Args: map[string]any{"id": t.ID},
			})
		}
	}
	return spans, opts
}
