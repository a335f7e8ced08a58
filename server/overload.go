package server

// Overload protection and degraded-mode serving.
//
// The writer queue is the engine's only blocking resource: reads are
// wait-free, so the failure mode under write overload is a queue that
// grows until every client is waiting behind a stalled apply loop.
// Admission control keeps that queue honest — a write is shed with
// ErrOverloaded (HTTP 429 + Retry-After) instead of queued when the depth
// crosses the shed watermark, or when the loop's estimated drain time
// already exceeds the request's deadline, so a doomed write fails in
// microseconds instead of holding a connection open to time out.
//
// Degraded mode is the durability counterpart: when a commit surfaces
// rxview.ErrDegraded (the log refused a record), the view has already
// flipped itself read-only. The engine keeps serving wait-free reads from
// the published snapshot, rejects writes up front, and runs a single
// background prober that retries View.Recover with jittered exponential
// backoff — through the apply queue, preserving the single-writer
// discipline — until the log heals and read-write is restored atomically.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrOverloaded marks a write shed by admission control instead of queued.
// The concrete type is *OverloadedError; the HTTP layer maps it to 429
// with a Retry-After header.
var ErrOverloaded = errors.New("server: writer queue overloaded")

// OverloadedError reports one shed write: the queue depth that triggered
// the shed and the estimated time until the queue would have drained —
// the client's Retry-After hint.
type OverloadedError struct {
	QueueDepth int64
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("server: writer queue overloaded (depth %d, retry after %v)", e.QueueDepth, e.RetryAfter)
}

// Is matches ErrOverloaded.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// admit decides whether a write may join the queue. Shedding reasons, in
// order: the queue is at the watermark (the loop is not keeping up —
// queuing more only adds latency for everyone), or the caller brought a
// deadline the estimated queue wait already exceeds (the write would
// expire while queued; failing now costs nothing and frees the slot).
// Reads never pass through here.
func (e *Engine) admit(deadline time.Time, hasDeadline bool) error {
	depth := e.met.depth.Value()
	if depth >= int64(e.highWater) {
		return &OverloadedError{QueueDepth: depth, RetryAfter: e.estWait(depth)}
	}
	if hasDeadline && depth > 0 {
		// Only a non-empty queue imposes a wait; an idle loop picks the
		// request up immediately, and a deadline too small for the pipeline
		// itself must surface as DeadlineExceeded, not as overload.
		if wait := e.estWait(depth); wait > time.Until(deadline) {
			return &OverloadedError{QueueDepth: depth, RetryAfter: wait}
		}
	}
	return nil
}

// estWait estimates how long a write joining the queue behind depth
// waiting requests will sit before the loop picks it up: depth times the
// loop's EWMA per-request service time. Coalescing makes the estimate
// conservative — a run retires many updates with one commit — which is the
// right direction for an admission decision.
func (e *Engine) estWait(depth int64) time.Duration {
	svc := e.svcNanos.Load()
	if svc == 0 {
		svc = int64(time.Millisecond) // no sample yet
	}
	w := time.Duration(depth * svc)
	if w < time.Millisecond {
		w = time.Millisecond
	}
	return w
}

// observeService folds one dispatch's duration into the EWMA per-request
// service time (α = 1/8). n is the number of requests the dispatch
// retired. Written only by the apply loop; admit loads it concurrently.
func (e *Engine) observeService(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	per := int64(d) / int64(n)
	if old := e.svcNanos.Load(); old != 0 {
		per = old - old/8 + per/8
	}
	e.svcNanos.Store(per)
}

// Degraded reports whether the engine's view is in degraded (read-only)
// mode: writes are rejected with rxview.ErrDegraded while reads keep
// serving the published snapshot. Safe for concurrent use — it is the
// health-probe hook.
func (e *Engine) Degraded() bool { return e.view.Degraded() }

// kickRecovery starts the background recovery prober, unless one is
// already running. Called from deliver when a verdict surfaces
// ErrDegraded (the view has just flipped read-only).
func (e *Engine) kickRecovery() {
	if !e.recovering.CompareAndSwap(false, true) {
		return
	}
	e.met.degradedG.Set(1)
	e.wg.Add(1)
	go e.probeRecovery()
}

// probeRecovery retries recovery with jittered exponential backoff until
// the view is read-write again or the engine closes. It runs off-loop but
// never touches the view: each attempt is a loop step (exec) that calls
// View.Recover on the apply goroutine, serialized with every write. A
// successful probe republishes one epoch of the same generation: the
// generation does not move on recovery, it resumes from where degradation
// froze it.
func (e *Engine) probeRecovery() {
	defer e.wg.Done()
	var b backoff
	for b.wait(e.stopCtx) {
		// A probe the queue refuses means the engine is closing: Close cancels
		// stopCtx, which ends the wait above — the next boot replays the log
		// instead.
		err := e.exec(e.stopCtx, func() error {
			e.met.probes.Inc()
			return e.view.Recover()
		})
		if err == nil && !e.view.Degraded() {
			e.met.recoveries.Inc()
			e.met.degradedG.Set(0)
			e.recovering.Store(false)
			// If a later write re-degrades the view, its delivery kicks a
			// fresh prober; this one is done.
			return
		}
	}
}

// The one retry schedule of the serving layer, shared by the recovery
// prober and a follower's reconnect loop. Variables only so the package's
// tests can shorten them (export_test.go); nothing else writes them.
var (
	backoffBase = 25 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// backoff is a jittered exponential delay: the n-th wait lasts a uniform
// draw from [d/2, d] with d = backoffBase·2ⁿ capped at backoffCap. The
// jitter decorrelates nodes that failed together. The zero value is ready.
type backoff struct{ d time.Duration }

// wait sleeps out the next delay and doubles the one after it. It reports
// false, early, once ctx is done.
func (b *backoff) wait(ctx context.Context) bool {
	if b.d == 0 {
		b.d = backoffBase
	}
	select {
	case <-time.After(b.d/2 + time.Duration(rand.Int63n(int64(b.d)/2+1))):
	case <-ctx.Done():
		return false
	}
	b.d = min(2*b.d, backoffCap)
	return true
}
