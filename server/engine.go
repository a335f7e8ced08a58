package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rxview"
	"rxview/obs"
)

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("server: engine closed")

// Option configures an Engine.
type Option func(*config)

type config struct {
	queue     int
	highWater int
	probeBase time.Duration
	probeMax  time.Duration
}

const (
	// maxCoalesce caps how many consecutive insertions one Batch run may
	// absorb.
	maxCoalesce = 64
	// memoCap is how many distinct query texts the per-epoch result memo
	// holds. The memo is rebuilt empty at every snapshot publication, so it
	// only ever pays off across reads of the same epoch — exactly the
	// repeated-hot-query case.
	memoCap = 256
)

// WithQueueDepth bounds the number of writes waiting for the apply loop.
// Default 256. Submissions beyond the shed watermark (by default the queue
// capacity itself) are refused with ErrOverloaded rather than blocked; see
// WithShedWatermark.
func WithQueueDepth(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.queue = n
		}
	}
}

// WithShedWatermark sets the queue depth at which admission control sheds
// new writes with ErrOverloaded instead of queuing them. Defaults to the
// queue capacity. Lower it below the capacity to start shedding before
// submitters ever block on the channel.
func WithShedWatermark(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.highWater = n
		}
	}
}

// WithRecoveryBackoff sets the base and cap of the jittered exponential
// backoff between degraded-mode recovery probes. Defaults: 25ms base, 2s
// cap.
func WithRecoveryBackoff(base, max time.Duration) Option {
	return func(c *config) {
		if base > 0 {
			c.probeBase = base
		}
		if max > 0 {
			c.probeMax = max
		}
	}
}

// epoch is one published read unit: an immutable snapshot plus its result
// memo. The memo lives and dies with the snapshot, which makes (path,
// generation) the implicit memo key.
type epoch struct {
	sn   *rxview.Snapshot
	memo *resultMemo
}

// Engine wraps a View for concurrent serving: wait-free snapshot-isolated
// reads and a single-writer apply loop. See the package documentation for
// the consistency model. Create one with New; after that the View must not
// be used directly (the Engine owns it).
type Engine struct {
	view *rxview.View // xviewlint:writer-only
	cfg  config
	ep   atomic.Pointer[epoch]
	reqs chan *request

	mu     sync.RWMutex // guards closed vs. sends on reqs
	closed bool
	wg     sync.WaitGroup

	// met holds the engine's private obs registry and every counter,
	// gauge and histogram the hot paths record into; see metrics.go.
	met engineMetrics
	// committedGen is the view generation stamped at the last delivery —
	// the newest write any client has been acknowledged for. Readers
	// compare it against their epoch's generation for the lag histogram.
	committedGen atomic.Uint64

	// Overload and degraded-mode state; see overload.go.
	highWater  int             // queue depth at which admission sheds writes
	svcNanos   atomic.Int64    // EWMA per-request apply-loop service time, ns
	recovering atomic.Bool     // a recovery prober goroutine is live
	stopCtx    context.Context // canceled by Close; wakes the prober out of backoff
	stopCancel context.CancelFunc

	// primary, when non-nil, marks a read-only follower engine: client
	// writes are refused up front with *ReadOnlyReplicaError advertising
	// this address, and only replication exec steps reach the loop. See
	// replica.go.
	primary atomic.Pointer[string]
}

// request is one submission to the apply loop. Exactly one result is
// delivered on done (buffered), whether the update applies, no-ops, fails
// or is skipped as canceled.
type request struct {
	ctx     context.Context
	u       rxview.Update
	batch   []rxview.Update // non-nil: a client batch, prefix semantics
	tx      []rxview.Update // non-nil: an atomic group (all-or-nothing)
	exec    func() error    // non-nil: a replication step run verbatim on the loop
	recover bool            // a recovery probe: the loop calls View.Recover
	counted bool            // already tallied in the coalescing counters
	wait    obs.Span        // queue-wait span, opened at submit
	done    chan result
}

type result struct {
	rep  *rxview.Report
	reps []*rxview.Report
	gen  uint64 // generation of the published snapshot covering the verdict
	err  error
}

// New starts the serving layer over a view: it publishes the initial
// snapshot and launches the apply loop. The caller hands the view over —
// all further access must go through the Engine.
//
// xviewlint:writer-init
func New(view *rxview.View, opts ...Option) *Engine {
	cfg := config{queue: 256, probeBase: 25 * time.Millisecond, probeMax: 2 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.highWater <= 0 {
		cfg.highWater = cfg.queue
	}
	e := &Engine{
		view:      view,
		cfg:       cfg,
		reqs:      make(chan *request, cfg.queue),
		met:       newEngineMetrics(),
		highWater: cfg.highWater,
	}
	//lint:ignore xviewlint/ctxflow the prober's lifetime is the engine's, not any request's; Close cancels it
	e.stopCtx, e.stopCancel = context.WithCancel(context.Background())
	e.ep.Store(&epoch{sn: view.Snapshot(), memo: newResultMemo(memoCap)})
	e.committedGen.Store(view.Generation())
	if view.Degraded() {
		// Booted into degraded mode (possible when the caller hands over a
		// view whose log already failed): start probing immediately.
		e.kickRecovery()
	}
	e.wg.Add(1)
	go e.run()
	return e
}

// Close stops accepting submissions, waits for the apply loop to drain and
// process everything already queued, and returns. A running recovery
// prober is stopped: a view still degraded at Close stays degraded, and
// the next Open recovers from the log instead. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.reqs)
	}
	e.mu.Unlock()
	e.stopCancel()
	e.wg.Wait()
}

// Snapshot returns the currently published epoch's snapshot. Never nil.
func (e *Engine) Snapshot() *rxview.Snapshot { return e.ep.Load().sn }

// Generation returns the published epoch's write-history prefix.
func (e *Engine) Generation() uint64 { return e.ep.Load().sn.Generation() }

// QueryResult carries a query's nodes together with the generation (write
// prefix) they were read at.
type QueryResult struct {
	Nodes      []rxview.Node
	Generation uint64
}

// Query evaluates an XPath expression against the current snapshot. It
// never blocks behind the apply loop: the result is exactly the view after
// the prefix of updates identified by QueryResult.Generation.
//
// Repeated queries of one epoch are served from the epoch's result memo
// (the path text is compiled at most once process-wide either way); a memo
// hit returns the same Node slice to every caller, which must treat it as
// read-only.
//
// xviewlint:hot-path
func (e *Engine) Query(ctx context.Context, path string) (QueryResult, error) {
	ep := e.ep.Load()
	e.met.queries.Inc()
	if nodes, ok := ep.memo.get(path); ok {
		// Memo hit: tens of nanoseconds end to end. Counters only — a span
		// (two clock reads) would multiply the cost of the hit itself, so
		// latency is observed where evaluation actually happens, below.
		e.met.memoHits.Inc()
		if err := ctx.Err(); err != nil {
			return QueryResult{}, err
		}
		return QueryResult{Nodes: nodes, Generation: ep.sn.Generation()}, nil
	}
	e.met.memoMisses.Inc()
	sp := obs.StartSpan(e.met.queryDur)
	if sp.Active() {
		// How stale is the epoch being read, in generations, against the
		// newest write any client has been acknowledged for?
		if lead, gen := e.committedGen.Load(), ep.sn.Generation(); lead > gen {
			e.met.readerLag.ObserveValue(float64(lead - gen))
		} else {
			e.met.readerLag.ObserveValue(0)
		}
	}
	var route string // filled by the evaluation below, for the slow log
	nodes, err := ep.sn.Query(obs.WithRouteSlot(ctx, &route), path)
	if err != nil {
		return QueryResult{Nodes: nodes, Generation: ep.sn.Generation()}, err
	}
	ep.memo.put(path, nodes)
	d := sp.End()
	e.met.slow.RecordRoute("query", path, route, d, ep.sn.Generation())
	return QueryResult{Nodes: nodes, Generation: ep.sn.Generation()}, nil
}

// Update submits one update to the apply loop and blocks until the loop
// delivers its verdict: the report and error are exactly what View.Apply
// would return. The snapshot covering the update is published before the
// verdict is delivered, so a caller whose Update returned applied reads its
// own write from the very next Query (read-your-writes). A context canceled
// while the update is still queued makes the loop skip it — it reports
// context.Canceled and is guaranteed not to have been applied; cancellation
// in-flight is honored by the pipeline's phase checks.
func (e *Engine) Update(ctx context.Context, u rxview.Update) (*rxview.Report, error) {
	rep, _, err := e.updateWithGen(ctx, u)
	return rep, err
}

// updateWithGen is Update returning also the generation of the snapshot
// published with the verdict — stamped by the apply loop at delivery, so it
// covers exactly this write's run and cannot include later clients' writes.
// The HTTP layer reports it per request.
func (e *Engine) updateWithGen(ctx context.Context, u rxview.Update) (*rxview.Report, uint64, error) {
	req := &request{ctx: ctx, u: u, done: make(chan result, 1)}
	if err := e.submit(ctx, req); err != nil {
		return nil, 0, err
	}
	res := <-req.done
	return res.rep, res.gen, res.err
}

// Batch submits a sequence of updates to be applied as one unit with
// View.Batch's prefix semantics, serialized against all other writes.
func (e *Engine) Batch(ctx context.Context, updates ...rxview.Update) ([]*rxview.Report, error) {
	reps, _, err := e.batchWithGen(ctx, updates...)
	return reps, err
}

// batchWithGen is Batch returning also the covering snapshot generation,
// stamped at delivery like updateWithGen.
func (e *Engine) batchWithGen(ctx context.Context, updates ...rxview.Update) ([]*rxview.Report, uint64, error) {
	if updates == nil {
		updates = []rxview.Update{}
	}
	req := &request{ctx: ctx, batch: updates, done: make(chan result, 1)}
	if err := e.submit(ctx, req); err != nil {
		return nil, 0, err
	}
	res := <-req.done
	return res.reps, res.gen, res.err
}

// Tx submits an atomic group of updates, serialized against all other
// writes: either every update applies — one log record, one epoch
// published, the generation advanced by exactly 1 — or none does and
// the view is untouched. The reports cover the staged updates (ending, on
// failure, with the rejected one); the error is the group rejection, nil on
// commit. Unlike Batch there are no prefix effects to account for: a
// rejected group leaves nothing behind, and snapshot readers can never
// observe a partially applied group.
func (e *Engine) Tx(ctx context.Context, updates ...rxview.Update) ([]*rxview.Report, error) {
	reps, _, err := e.txWithGen(ctx, updates...)
	return reps, err
}

// txWithGen is Tx returning also the covering snapshot generation, stamped
// at delivery like updateWithGen.
func (e *Engine) txWithGen(ctx context.Context, updates ...rxview.Update) ([]*rxview.Report, uint64, error) {
	if updates == nil {
		updates = []rxview.Update{}
	}
	req := &request{ctx: ctx, tx: updates, done: make(chan result, 1)}
	if err := e.submit(ctx, req); err != nil {
		return nil, 0, err
	}
	res := <-req.done
	return res.reps, res.gen, res.err
}

// applyTx runs an atomic group through a view transaction. Called only from
// the apply loop. Any stage failure — a rejection dooming the group or a
// cancellation — aborts the whole group: all-or-nothing has no innocent
// members to retry, unlike the coalesced insert runs.
func (e *Engine) applyTx(ctx context.Context, updates []rxview.Update) ([]*rxview.Report, error) {
	tx, err := e.view.Begin(ctx)
	if err != nil {
		return nil, err
	}
	for _, u := range updates {
		if _, err := tx.Stage(ctx, u); err != nil {
			rbErr := tx.Rollback()
			e.met.txRejected.Inc()
			if rbErr != nil {
				return tx.Reports(), fmt.Errorf("server: tx rollback after %w: %w", err, rbErr)
			}
			return tx.Reports(), err
		}
	}
	if err := tx.Commit(ctx); err != nil {
		e.met.txRejected.Inc()
		return tx.Reports(), err
	}
	e.met.txCommits.Inc()
	return tx.Reports(), nil
}

// exec runs fn on the apply goroutine, serialized with every write, and
// publishes any epoch fn moved the view to. It is the follower's apply
// path: restores and streamed records go through the same single-writer
// loop as client writes, which is what keeps the writer-only discipline
// intact on replicas. Bypasses admission control like recovery probes —
// replication steps end staleness, so shedding them would be backwards.
func (e *Engine) exec(ctx context.Context, fn func() error) error {
	req := &request{ctx: ctx, exec: fn, done: make(chan result, 1)}
	if err := e.submit(ctx, req); err != nil {
		return err
	}
	res := <-req.done
	return res.err
}

// setPrimary flips the engine into read-only follower mode advertising the
// given primary address for redirected writes.
func (e *Engine) setPrimary(addr string) { e.primary.Store(&addr) }

// Primary returns the advertised primary address of a follower engine, or
// "" for a writable primary engine.
func (e *Engine) Primary() string {
	if p := e.primary.Load(); p != nil {
		return *p
	}
	return ""
}

func (e *Engine) submit(ctx context.Context, req *request) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if req.exec == nil && !req.recover {
		if p := e.primary.Load(); p != nil {
			// A follower refuses client writes before they touch the queue;
			// the error carries where they belong.
			e.met.rejected.Inc()
			return &ReadOnlyReplicaError{Primary: *p}
		}
	}
	if !req.recover && req.exec == nil {
		// Admission control: shed rather than queue a write the loop cannot
		// serve in time. Recovery probes bypass it — they are what ends an
		// outage, and they must reach the loop even at full depth.
		deadline, ok := ctx.Deadline()
		if err := e.admit(deadline, ok); err != nil {
			e.met.shed.Inc()
			return err
		}
	}
	req.wait = obs.StartSpan(e.met.queueWait)
	e.met.depth.Add(1)
	select {
	case e.reqs <- req:
		return nil
	case <-ctx.Done():
		e.met.depth.Add(-1)
		return ctx.Err()
	}
}

// pickup accounts a request leaving the queue for the loop: the depth
// gauge drops and its queue wait lands in the histogram.
func (e *Engine) pickup(r *request) {
	e.met.depth.Add(-1)
	r.wait.End()
}

// run is the single-writer apply loop: it is the only goroutine that
// touches e.view after New, which is what makes the unsynchronized view
// safe. carry holds a request that gather pulled off the queue but could
// not coalesce.
//
// xviewlint:writer-loop
func (e *Engine) run() {
	defer e.wg.Done()
	var carry *request
	for {
		req := carry
		carry = nil
		if req == nil {
			var ok bool
			req, ok = <-e.reqs
			if !ok {
				return
			}
			e.pickup(req)
		}
		if req.recover {
			e.runRecover(req)
			continue
		}
		if req.exec != nil {
			// A replication step: run it verbatim, publish, deliver its
			// error. Publication is unconditional on success — a checkpoint
			// restore can replace the whole state without moving the
			// generation counter past the published epoch's.
			var err error
			if err = req.ctx.Err(); err == nil {
				err = req.exec()
			}
			if err == nil {
				e.republish()
			}
			e.deliver(req, result{err: err})
			continue
		}
		// A context that expired while the request sat in the queue is
		// skipped up front with a guaranteed-unapplied report — the same
		// contract processRun gives coalesced members, extended to the
		// direct-dispatch paths.
		if err := req.ctx.Err(); err != nil {
			e.deliver(req, queuedSkip(req, err))
			continue
		}
		t0 := time.Now()
		retired := 1
		switch {
		case req.tx != nil:
			// An atomic group: one transaction, and — on commit — exactly
			// one published epoch covering all of it. Readers observe the
			// pre-Begin snapshot until the post-commit one is swapped in;
			// a rejected group publishes nothing (the view didn't move).
			reps, err := e.applyTx(req.ctx, req.tx)
			stampPublish(e.publish(), reps...)
			e.deliver(req, result{reps: reps, err: err})
		case req.batch != nil:
			reps, err := e.view.Batch(req.ctx, req.batch...)
			stampPublish(e.publish(), reps...)
			e.deliver(req, result{reps: reps, err: err})
		case req.u.IsDelete():
			// Deletions are not coalesced (extending group commit to them
			// is ROADMAP's carried item); apply them alone under their own
			// context.
			rep, err := e.view.Apply(req.ctx, req.u)
			stampPublish(e.publish(), rep)
			e.deliver(req, result{rep: rep, err: err})
		default:
			var run []*request
			run, carry = e.gather(req)
			retired = len(run)
			e.processRun(run)
		}
		// Feed the admission controller's estimate of how fast the loop
		// retires queued requests.
		e.observeService(time.Since(t0), retired)
	}
}

// queuedSkip builds the verdict for a request whose context expired while
// it was still queued: unapplied reports in the shape the request's kind
// would have produced, and an error that restates the member's own cause
// (a deadline surfaces as DeadlineExceeded, not Canceled).
func queuedSkip(r *request, err error) result {
	switch {
	case r.tx != nil:
		return result{reps: unappliedReports(r.tx),
			err: fmt.Errorf("server: tx canceled while queued: %w", err)}
	case r.batch != nil:
		return result{reps: unappliedReports(r.batch),
			err: fmt.Errorf("server: batch canceled while queued: %w", err)}
	default:
		return result{rep: &rxview.Report{Op: r.u.String()},
			err: fmt.Errorf("server: %s: canceled while queued: %w", r.u, err)}
	}
}

// unappliedReports is one guaranteed-unapplied report per member, so a
// skipped group answers with the same shape as a processed one.
func unappliedReports(updates []rxview.Update) []*rxview.Report {
	reps := make([]*rxview.Report, len(updates))
	for i, u := range updates {
		reps[i] = &rxview.Report{Op: u.String()}
	}
	return reps
}

// gather collects the run of consecutive queued insertions starting at
// first, without blocking: it stops at the first queued deletion, client
// batch or atomic group (returned as carry for the next loop iteration),
// at an empty queue, or at the coalescing cap.
func (e *Engine) gather(first *request) (run []*request, carry *request) {
	run = []*request{first}
	for len(run) < maxCoalesce {
		select {
		case r, ok := <-e.reqs:
			if !ok {
				return run, nil
			}
			e.pickup(r)
			if r.batch == nil && r.tx == nil && r.exec == nil && !r.u.IsDelete() && !r.recover {
				run = append(run, r)
				continue
			}
			return run, r
		default:
			return run, nil
		}
	}
	return run, nil
}

// processRun applies a coalesced run of insertions through View.Batch while
// preserving per-update independence — each member gets exactly the verdict
// a lone View.Apply would have produced:
//
//   - members whose context is already canceled are skipped up front and
//     report context.Canceled, unapplied;
//   - a mid-run rejection (side effect, non-updatable, parse) is delivered
//     to the failing member only; the members after it re-run;
//   - the run executes under a context that cancels as soon as ANY member's
//     context cancels, so in-flight cancellation is honored; if the abort
//     lands on a member whose own context is still live, that member and
//     the rest re-run (the canceled one is dropped by the next round's
//     skip pass).
//
// Coalescing is what amortizes the log across independent submissions
// under concurrent writers: View.Batch hands the whole run to the commit
// sink at once — one append, one sync — instead of one per update.
func (e *Engine) processRun(run []*request) {
	for len(run) > 0 {
		live := run[:0]
		for _, r := range run {
			if err := r.ctx.Err(); err != nil {
				e.deliver(r, result{
					rep: &rxview.Report{Op: r.u.String()},
					err: fmt.Errorf("server: %s: canceled while queued: %w", r.u, err),
				})
				continue
			}
			live = append(live, r)
		}
		if len(live) == 0 {
			return
		}
		if len(live) == 1 {
			r := live[0]
			rep, err := e.view.Apply(r.ctx, r.u)
			stampPublish(e.publish(), rep)
			e.deliver(r, result{rep: rep, err: err})
			return
		}

		e.met.coalRuns.Inc()
		e.met.runSize.ObserveValue(float64(len(live)))
		for _, r := range live {
			// Count each update once, however many retry rounds it rides
			// through; CoalescedRuns counts Batch calls, so the two stay a
			// meaningful updates-per-run ratio.
			if !r.counted {
				r.counted = true
				e.met.coalUpds.Inc()
			}
		}
		//lint:ignore xviewlint/ctxflow the run context is the merge of every rider's ctx: it must outlive any single one and is canceled via AfterFunc when any rider cancels
		runCtx, cancel := context.WithCancel(context.Background())
		stops := make([]func() bool, len(live))
		updates := make([]rxview.Update, len(live))
		for i, r := range live {
			updates[i] = r.u
			stops[i] = context.AfterFunc(r.ctx, cancel)
		}
		reps, err := e.view.Batch(runCtx, updates...)
		for _, stop := range stops {
			stop()
		}
		cancel()
		// Publish before fulfilling any promise: a writer whose Update has
		// returned must be able to read its own write (and its generation)
		// from the very next Query.
		stampPublish(e.publish(), reps...)

		if err == nil {
			for i, r := range live {
				e.deliver(r, result{rep: reps[i]})
			}
			return
		}
		// The batch stopped at one member: reports cover the applied prefix
		// plus, last, the member that failed.
		k := len(reps)
		if k == 0 || k > len(live) {
			// Cannot attribute (should not happen); fail the remainder.
			for _, r := range live {
				e.deliver(r, result{err: err})
			}
			return
		}
		for i := 0; i < k-1; i++ {
			e.deliver(live[i], result{rep: reps[i]})
		}
		failing := live[k-1]
		if isCtxErr(err) {
			if ownErr := failing.ctx.Err(); ownErr != nil {
				// The stop landed on the member whose context fired. The
				// shared run context is always a plain cancel, so restate
				// the member's own cause (a deadline must surface as
				// DeadlineExceeded, not Canceled).
				e.deliver(failing, result{rep: reps[k-1],
					err: fmt.Errorf("server: %s: %w", failing.u, ownErr)})
				run = live[k:]
				continue
			}
			// Another member's cancellation tripped the shared run context;
			// the member at the stop point did nothing wrong. Re-run it and
			// everything after it.
			run = live[k-1:]
			continue
		}
		e.deliver(failing, result{rep: reps[k-1], err: err})
		run = live[k:]
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// deliver fulfills a request's promise exactly once, stamps the covering
// generation, and keeps the applied / rejected counters and the slow-
// commit log. Called only from the apply loop, always after the snapshot
// covering the verdict has been published.
func (e *Engine) deliver(r *request, res result) {
	res.gen = e.view.Generation()
	e.committedGen.Store(res.gen)
	if res.err != nil {
		e.met.rejected.Inc()
		if errors.Is(res.err, rxview.ErrDegraded) {
			// The view just flipped (or was already) read-only; make sure a
			// prober is working on getting it back.
			e.kickRecovery()
		}
	}
	var total time.Duration
	var op, route string
	count := func(rep *rxview.Report) {
		if rep != nil && rep.Applied {
			e.met.applied.Inc()
			total += rep.Timings.Total()
			op, route = rep.Op, rep.Route
		}
	}
	count(res.rep)
	for _, rep := range res.reps {
		count(rep)
	}
	// Total() is built from the pipeline's own phase clocks, so the slow-
	// commit check costs no time.Now on the apply loop.
	e.met.slow.RecordRoute("commit", op, route, total, res.gen)
	r.done <- res
}

// publish seals and swaps in a fresh epoch if the view moved, returning
// the publication duration (zero when nothing swapped, or when timing
// instrumentation is disabled). Called only from the apply loop. Sealing
// is O(Δ) in the write just applied — the copy-on-write snapshot shares
// all untouched state with the previous epoch — so publication cost
// tracks update size, not view size.
func (e *Engine) publish() time.Duration {
	if e.ep.Load().sn.Generation() == e.view.Generation() {
		return 0
	}
	sp := obs.StartSpan(e.met.publishDur)
	e.ep.Store(&epoch{sn: e.view.Snapshot(), memo: newResultMemo(memoCap)})
	d := sp.End()
	e.met.snapSwaps.Inc()
	rxview.ObservePublish(d)
	return d
}

// republish seals and swaps in a fresh epoch unconditionally — the
// replication-step variant of publish, where state can change under an
// unchanged generation. Called only from the apply loop.
func (e *Engine) republish() {
	sp := obs.StartSpan(e.met.publishDur)
	e.ep.Store(&epoch{sn: e.view.Snapshot(), memo: newResultMemo(memoCap)})
	d := sp.End()
	e.met.snapSwaps.Inc()
	rxview.ObservePublish(d)
}

// Stats describes the serving layer: the published epoch's view statistics
// plus the engine's counters.
type Stats struct {
	View             rxview.Stats `json:"view"`
	Generation       uint64       `json:"generation"`
	Queries          uint64       `json:"queries"`
	UpdatesApplied   uint64       `json:"updates_applied"`
	UpdatesRejected  uint64       `json:"updates_rejected"`
	TxCommitted      uint64       `json:"tx_committed"`
	TxRejected       uint64       `json:"tx_rejected"`
	CoalescedRuns    uint64       `json:"coalesced_runs"`
	CoalescedUpdates uint64       `json:"coalesced_updates"`
	SnapshotSwaps    uint64       `json:"snapshot_swaps"`
	QueueDepth       int64        `json:"queue_depth"`
	// WritesShed counts writes refused by admission control (HTTP 429);
	// Degraded reports the view's current read-only state; Recoveries
	// counts successful degraded→read-write transitions.
	WritesShed uint64 `json:"writes_shed"`
	Degraded   bool   `json:"degraded"`
	Recoveries uint64 `json:"recoveries"`
	// ReadOnly marks a follower engine; Primary is the address its refused
	// writes advertise (HTTP 421).
	ReadOnly bool   `json:"read_only,omitempty"`
	Primary  string `json:"primary,omitempty"`
	// QueryMemoHits / QueryMemoMisses count Engine.Query calls served from
	// (respectively past) the per-epoch result memo.
	QueryMemoHits   uint64 `json:"query_memo_hits"`
	QueryMemoMisses uint64 `json:"query_memo_misses"`
	// PathCacheHits / PathCacheMisses are the process-wide compiled-path
	// cache counters (shared with every view in the process).
	PathCacheHits   uint64 `json:"path_cache_hits"`
	PathCacheMisses uint64 `json:"path_cache_misses"`
}

// Stats reads the current serving statistics. Safe for concurrent use.
func (e *Engine) Stats() Stats {
	sn := e.ep.Load().sn
	pcHits, pcMisses := rxview.PathCacheStats()
	return Stats{
		View:             sn.Stats(),
		Generation:       sn.Generation(),
		Queries:          e.met.queries.Value(),
		UpdatesApplied:   e.met.applied.Value(),
		UpdatesRejected:  e.met.rejected.Value(),
		TxCommitted:      e.met.txCommits.Value(),
		TxRejected:       e.met.txRejected.Value(),
		CoalescedRuns:    e.met.coalRuns.Value(),
		CoalescedUpdates: e.met.coalUpds.Value(),
		SnapshotSwaps:    e.met.snapSwaps.Value(),
		QueueDepth:       e.met.depth.Value(),
		WritesShed:       e.met.shed.Value(),
		Degraded:         e.Degraded(),
		Recoveries:       e.met.recoveries.Value(),
		ReadOnly:         e.Primary() != "",
		Primary:          e.Primary(),
		QueryMemoHits:    e.met.memoHits.Value(),
		QueryMemoMisses:  e.met.memoMisses.Value(),
		PathCacheHits:    pcHits,
		PathCacheMisses:  pcMisses,
	}
}
