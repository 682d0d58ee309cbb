// Package workpool provides the resizable worker pool behind the experiment
// harness and the simulation service: a bounded set of long-lived workers
// executing submitted closures, whose width can be retuned at runtime by a
// feedback controller without ever interrupting a task in flight.
//
// Growth spawns workers on demand (a worker is only created when a task is
// waiting and no idle worker exists, so an oversized pool costs nothing);
// shrinking retires workers cooperatively at task boundaries: a worker
// checks the target width between tasks and exits when the pool is over
// target, and a downsize wakes the idle workers so it takes effect without
// waiting for new traffic. Because resizing only changes how
// many closures run concurrently — never what a closure computes — callers
// keep their byte-identical-results guarantee at any width.
package workpool

import (
	"context"
	"sync"
	"sync/atomic"
)

// task is one submitted closure plus its completion handshake. claimed
// settles the race between a worker picking the task up and the submitter
// abandoning it on context cancellation: whoever wins the CAS owns the
// task's fate.
type task struct {
	f       func()
	done    chan struct{}
	claimed atomic.Bool
}

// Pool is a resizable worker pool. The zero value is not usable; construct
// with New. Safe for concurrent use.
type Pool struct {
	// tasks is unbuffered: a submitter blocks in Do until a worker
	// receives its task, so "queued work" lives in the submitters and the
	// pool's width alone bounds concurrency.
	tasks chan *task

	mu      sync.Mutex
	size    int // target width
	alive   int // workers running (idle + busy)
	idle    int // workers waiting for a task; a sender decrements it on hand-off
	waiting int // submitters blocked handing a task off
	spawned uint64
	retired uint64
	resizes uint64
	// shrink is closed, and replaced, when a Resize leaves more workers
	// alive than the target: every idle worker wakes to re-check the width.
	shrink chan struct{}

	busy atomic.Int64 // workers currently executing a task
}

// Stats is a point-in-time snapshot of the pool.
type Stats struct {
	Size    int    `json:"size"`
	Alive   int    `json:"alive"`
	Idle    int    `json:"idle"`
	Busy    int    `json:"busy"`
	Spawned uint64 `json:"spawned"`
	Retired uint64 `json:"retired"`
	Resizes uint64 `json:"resizes"`
}

// New builds a pool with the given target width (clamped to >= 1). No
// workers are started until work arrives.
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{tasks: make(chan *task), size: size, shrink: make(chan struct{})}
}

// Size returns the current target width.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// Busy returns the number of workers currently executing a task.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Size: p.size, Alive: p.alive, Idle: p.idle, Busy: int(p.busy.Load()),
		Spawned: p.spawned, Retired: p.retired, Resizes: p.resizes,
	}
}

// Resize sets the target width (clamped to >= 1) and returns the width
// actually applied. Growing takes effect lazily — new workers spawn as work
// arrives. Shrinking is cooperative: busy workers finish their current task
// first (a task is never interrupted), and idle workers are woken so they
// retire immediately.
func (p *Pool) Resize(n int) int {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	if n == p.size {
		p.mu.Unlock()
		return n
	}
	p.size = n
	p.resizes++
	if p.alive > n {
		// Wake every idle worker, including one that has counted itself
		// idle but not yet started waiting; the width check in worker
		// retires exactly the excess. A busy worker retires at its next
		// task boundary.
		close(p.shrink)
		p.shrink = make(chan struct{})
	}
	p.mu.Unlock()
	return n
}

// Do submits f and blocks until a worker has run it to completion. If ctx
// ends before a worker picks the task up, Do abandons it and returns the
// context's error; once a worker has claimed the task it always runs to
// completion (Do then waits for it even if ctx has expired, so f's captured
// variables are never racily abandoned mid-write).
func (p *Pool) Do(ctx context.Context, f func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := &task{f: f, done: make(chan struct{})}
	p.mu.Lock()
	p.waiting++
	// Spawn only when the submitters already queueing outnumber the idle
	// workers — an idle worker that exists will take this task, and a
	// worker beyond the target width must not be created.
	if p.idle < p.waiting && p.alive < p.size {
		p.alive++
		p.spawned++
		go p.worker()
	}
	p.mu.Unlock()
	handedOff := false
	select {
	case p.tasks <- t:
		handedOff = true
	case <-ctx.Done():
	}
	p.mu.Lock()
	p.waiting--
	if handedOff {
		// The receiving worker is no longer idle. Both counts drop in one
		// step so the spawn check in a concurrent Do never sees this
		// submitter gone while its worker still looks idle.
		p.idle--
	}
	p.mu.Unlock()
	if !handedOff {
		return ctx.Err()
	}
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		if t.claimed.CompareAndSwap(false, true) {
			// No worker had picked the task up; it will be skipped.
			return ctx.Err()
		}
		// A worker claimed it concurrently: wait out the execution.
		<-t.done
		return nil
	}
}

// worker is one pool goroutine: take a task, run it, re-check the target
// width, repeat. Retirement happens only here, between tasks.
func (p *Pool) worker() {
	for {
		p.mu.Lock()
		if p.alive > p.size {
			p.alive--
			p.retired++
			p.mu.Unlock()
			return
		}
		p.idle++
		shrink := p.shrink
		p.mu.Unlock()

		var t *task
		select {
		case t = <-p.tasks:
			// The sender took this worker off the idle count.
		case <-shrink:
			p.mu.Lock()
			p.idle--
			p.mu.Unlock()
			continue // loop to re-check the target width
		}
		if !t.claimed.CompareAndSwap(false, true) {
			continue // submitter abandoned the task on cancellation
		}
		p.busy.Add(1)
		t.f()
		p.busy.Add(-1)
		close(t.done)
	}
}
