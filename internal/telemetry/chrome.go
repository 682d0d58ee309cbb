package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeOptions parameterises the Chrome trace-event export.
type ChromeOptions struct {
	// NumSMs is the machine's SM count; every SM gets a process entry even
	// when it emitted no events, so traces always cover the whole machine.
	NumSMs int
	// Kernel names the traced kernel in kernel spans (optional).
	Kernel string
}

// chromeEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Field order is fixed by the struct so output is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the exported document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process/thread layout of the exported trace:
//
//	pid 0           "machine": kernel spans (tid 0), epochs (tid 1),
//	                VF counters and transition spans (tid 2 SM / tid 3 mem)
//	pid 1+i         "SM i": one thread per block slot holding block
//	                residency spans with nested CTA-pause spans; tid 100
//	                holds per-epoch decision instants.
const (
	machinePID   = 0
	tidKernel    = 0
	tidEpochs    = 1
	tidVFSM      = 2
	tidVFMem     = 3
	tidDecisions = 100
)

func smPID(sm int16) int { return 1 + int(sm) }

// usec converts picoseconds to the format's microsecond timestamps.
func usec(ps int64) float64 { return float64(ps) / 1e6 }

var vfLevelNames = [...]string{"low", "normal", "high"}

func levelName(l int64) string {
	if l >= 0 && int(l) < len(vfLevelNames) {
		return vfLevelNames[l]
	}
	return fmt.Sprintf("level%d", l)
}

var tendencyNames = [...]string{"none", "compute", "memory"}

func tendencyName(t int64) string {
	if t >= 0 && int(t) < len(tendencyNames) {
		return tendencyNames[t]
	}
	return fmt.Sprintf("tendency%d", t)
}

// openSpan tracks an unclosed B-phase event.
type openSpan struct {
	name  string
	cat   string
	start int64
	pid   int
	tid   int
	args  map[string]any
}

// Span is one generic duration event for WriteChromeSpans: a named interval
// on a (process, thread) track with optional category and arguments. It is
// the service/request-trace counterpart of the probe-bus events consumed by
// WriteChromeTrace, sharing the same output document shape.
type Span struct {
	// Name labels the span in the trace viewer.
	Name string
	// Cat is the trace-event category (optional).
	Cat string
	// PID and TID place the span on a track; WriteChromeSpans emits
	// process/thread name metadata from ProcessNames and ThreadNames.
	PID, TID int
	// StartUS and DurUS are the span's start and duration in microseconds.
	StartUS, DurUS float64
	// Args carries extra key/value detail shown on click.
	Args map[string]any
}

// SpanOptions parameterises WriteChromeSpans.
type SpanOptions struct {
	// ProcessNames maps PIDs to display names (optional).
	ProcessNames map[int]string
	// ThreadNames maps (PID, TID) pairs — keyed pid<<32|tid — to display
	// names; use ThreadKey to build keys (optional).
	ThreadNames map[int64]string
}

// ThreadKey builds a ThreadNames key for (pid, tid).
func ThreadKey(pid, tid int) int64 { return int64(pid)<<32 | int64(uint32(tid)) }

// WriteChromeSpans renders generic spans as Chrome trace-event JSON loadable
// in Perfetto or chrome://tracing. Output is deterministic for a fixed span
// slice: metadata is emitted in sorted PID/TID order and spans in input
// order.
func WriteChromeSpans(w io.Writer, spans []Span, opts SpanOptions) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	pids := make([]int, 0, len(opts.ProcessNames))
	for pid := range opts.ProcessNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": opts.ProcessNames[pid]},
		})
	}
	tkeys := make([]int64, 0, len(opts.ThreadNames))
	for k := range opts.ThreadNames {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool { return tkeys[i] < tkeys[j] })
	for _, k := range tkeys {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: int(k >> 32), TID: int(uint32(k)),
			Args: map[string]any{"name": opts.ThreadNames[k]},
		})
	}
	for _, s := range spans {
		d := s.DurUS
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", TS: s.StartUS, Dur: &d,
			PID: s.PID, TID: s.TID, Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteChromeTrace renders a probe-bus event stream as Chrome trace-event
// JSON loadable in Perfetto or chrome://tracing. Events must be in emission
// order (as returned by Bus.Events). Spans left open at the end of the
// stream — and spans whose opening event was overwritten by ring
// wrap-around — are tolerated: the former are closed at the final
// timestamp, the latter are dropped.
func WriteChromeTrace(w io.Writer, events []Event, opts ChromeOptions) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Metadata: name every process and fixed thread up front.
	meta := func(pid int, tid int, key, value string) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: key, Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": value},
		})
	}
	meta(machinePID, 0, "process_name", "machine")
	meta(machinePID, tidKernel, "thread_name", "kernel")
	meta(machinePID, tidEpochs, "thread_name", "epochs")
	meta(machinePID, tidVFSM, "thread_name", "vf sm domain")
	meta(machinePID, tidVFMem, "thread_name", "vf mem domain")
	for i := 0; i < opts.NumSMs; i++ {
		meta(smPID(int16(i)), 0, "process_name", fmt.Sprintf("SM %d", i))
	}

	var end int64
	for _, e := range events {
		if e.TimePS > end {
			end = e.TimePS
		}
	}

	complete := func(name, cat string, startPS, endPS int64, pid, tid int, args map[string]any) {
		d := usec(endPS - startPS)
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Cat: cat, Ph: "X", TS: usec(startPS), Dur: &d,
			PID: pid, TID: tid, Args: args,
		})
	}
	instant := func(name, cat string, ps int64, pid, tid int, args map[string]any) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Cat: cat, Ph: "i", TS: usec(ps), PID: pid, TID: tid, Args: args,
		})
	}
	counter := func(name string, ps int64, pid, tid int, args map[string]any) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Ph: "C", TS: usec(ps), PID: pid, TID: tid, Args: args,
		})
	}

	type slotKey struct {
		sm   int16
		slot int64
	}
	openKernels := map[int16]*openSpan{}
	openBlocks := map[slotKey]*openSpan{}
	openPauses := map[slotKey]*openSpan{}
	vfRequestPS := map[int16]int64{}
	var lastEpochPS int64

	kernelName := opts.Kernel
	if kernelName == "" {
		kernelName = "kernel"
	}

	for _, e := range events {
		switch e.Kind {
		case KindKernelBegin:
			openKernels[e.Src] = &openSpan{
				name:  fmt.Sprintf("%s inv %d", kernelName, e.A),
				start: e.TimePS,
				args:  map[string]any{"partition": int(e.Src), "invocation": e.A},
			}
			if len(openKernels) == 1 {
				lastEpochPS = e.TimePS
			}
		case KindKernelEnd:
			if s, ok := openKernels[e.Src]; ok {
				complete(s.name, "kernel", s.start, e.TimePS, machinePID, tidKernel, s.args)
				delete(openKernels, e.Src)
			}
		case KindEpoch:
			smStep, memStep := e.B>>2-1, e.B&3-1
			complete(fmt.Sprintf("epoch %d", e.A), "epoch", lastEpochPS, e.TimePS,
				machinePID, tidEpochs,
				map[string]any{"epoch": e.A, "smVote": smStep, "memVote": memStep})
			lastEpochPS = e.TimePS
		case KindEpochDecision:
			instant(tendencyName(e.A), "decision", e.TimePS, smPID(e.Src), tidDecisions,
				map[string]any{"tendency": tendencyName(e.A), "blockDelta": e.B})
		case KindVFRequest:
			vfRequestPS[e.Src] = e.TimePS
		case KindVFShift:
			tid := tidVFSM
			domain := "sm"
			if e.Src == DomainMem {
				tid = tidVFMem
				domain = "mem"
			}
			counter("vf "+domain+" level", e.TimePS, machinePID, tid,
				map[string]any{"level": e.A})
			if req, ok := vfRequestPS[e.Src]; ok && e.B > 0 {
				complete("vf shift to "+levelName(e.A), "vf", req, e.TimePS,
					machinePID, tid, map[string]any{"latencyPS": e.B})
				delete(vfRequestPS, e.Src)
			}
		case KindBlockLaunch:
			slot := e.B >> 16
			openBlocks[slotKey{e.Src, slot}] = &openSpan{
				name:  fmt.Sprintf("block %d", e.A),
				start: e.TimePS,
				tid:   int(slot),
				args:  map[string]any{"block": e.A, "wcta": e.B & 0xffff},
			}
		case KindBlockFinish:
			k := slotKey{e.Src, e.B}
			if p, ok := openPauses[k]; ok {
				// A pause span must close inside its block span.
				complete("paused", "cta", p.start, e.TimePS, smPID(e.Src), int(e.B), nil)
				delete(openPauses, k)
			}
			if s, ok := openBlocks[k]; ok {
				complete(s.name, "block", s.start, e.TimePS, smPID(e.Src), s.tid, s.args)
				delete(openBlocks, k)
			}
		case KindCTAPause:
			openPauses[slotKey{e.Src, e.A}] = &openSpan{start: e.TimePS}
		case KindCTAUnpause:
			k := slotKey{e.Src, e.A}
			if p, ok := openPauses[k]; ok {
				complete("paused", "cta", p.start, e.TimePS, smPID(e.Src), int(e.A), nil)
				delete(openPauses, k)
			}
		}
	}

	// Close anything still open at the trace end so Perfetto renders it.
	closeRemaining := func(spans map[slotKey]*openSpan, cat string, fallback string) {
		keys := make([]slotKey, 0, len(spans))
		for k := range spans {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].sm != keys[j].sm {
				return keys[i].sm < keys[j].sm
			}
			return keys[i].slot < keys[j].slot
		})
		for _, k := range keys {
			s := spans[k]
			name := s.name
			if name == "" {
				name = fallback
			}
			tid := s.tid
			if cat == "cta" {
				tid = int(k.slot)
			}
			complete(name, cat, s.start, end, smPID(k.sm), tid, s.args)
		}
	}
	closeRemaining(openPauses, "cta", "paused")
	closeRemaining(openBlocks, "block", "block")
	{
		keys := make([]int16, 0, len(openKernels))
		for k := range openKernels {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			s := openKernels[k]
			complete(s.name, "kernel", s.start, end, machinePID, tidKernel, s.args)
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
