package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rxview"
	"rxview/internal/core"
	"rxview/internal/lru"
	"rxview/internal/obs"
)

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("server: engine closed")

// Option configures an Engine.
type Option func(*config)

type config struct {
	queue     int
	highWater int
}

const (
	// maxCoalesce caps how many queued updates one run — one commit — may
	// absorb. It never splits a submission: a batch larger than the cap
	// runs whole, alone.
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

// epoch is one published read unit: an immutable snapshot plus its result
// memo. The memo is keyed by path text alone because its lifetime is the
// generation: every publication hangs a fresh empty memo off the new
// snapshot, so a hit can never serve a stale epoch's answer. Only successful
// evaluations are memoized (parse errors are cached by the compiled-path
// cache; context errors are the caller's), and every hit shares the cached
// answer, which is safe because an answer is never written after the miss
// that built it and handlers only read it.
type epoch struct {
	sn   *rxview.Snapshot
	memo *lru.Cache[answer]
}

// answer is one memoized query result as it is served: the nodes, and the
// /query response body encoding them at the epoch's generation (encodeQuery),
// which a hit over HTTP writes as is.
type answer struct {
	nodes []rxview.Node
	body  []byte
}

// newEpoch publishes sn with an empty result memo.
func newEpoch(sn *rxview.Snapshot) *epoch {
	return &epoch{sn: sn, memo: lru.New[answer](memoCap)}
}

// Engine wraps a View for concurrent serving: wait-free snapshot-isolated
// reads and a single-writer apply loop. See the package documentation for
// the consistency model. Create one with New; after that the View must not
// be used directly (the Engine owns it).
type Engine struct {
	// view is set once by New and belongs to the apply loop: off the loop
	// only View.Degraded (an atomic load) may be called on it. Checked by
	// TestReadSideNeverTouchesLiveView under -race; see doc.go.
	view *rxview.View
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

// request is one submission to the apply loop: a client write — a list of
// updates, one for Engine.Update — or, with exec set, a loop step.
// Exactly one result is delivered on done (buffered), whether the updates
// apply, no-op, fail or are skipped as canceled.
type request struct {
	ctx     context.Context
	updates []rxview.Update
	atomic  bool         // all-or-nothing (Engine.Tx), not prefix semantics; runs alone
	exec    func() error // non-nil: a replication step or recovery probe, run verbatim on the loop
	wait    obs.Span     // queue-wait span, opened at submit
	done    chan result
}

// result is a request's verdict: one report per update that ran (a prefix
// write's reports end at its first failure), and the error.
type result struct {
	reps []*rxview.Report
	gen  uint64 // generation of the published snapshot covering the verdict
	err  error
}

// New starts the serving layer over a view: it publishes the initial
// snapshot and launches the apply loop. The caller hands the view over —
// all further access must go through the Engine.
func New(view *rxview.View, opts ...Option) *Engine {
	cfg := config{queue: 256}
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
	e.ep.Store(newEpoch(view.Snapshot()))
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
	a, hit := e.memoized(ep, path)
	var err error
	if hit {
		err = ctx.Err()
	} else {
		a, err = e.evaluate(ctx, ep, path)
	}
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Nodes: a.nodes, Generation: ep.sn.Generation()}, nil
}

// memoized counts one query read at ep and returns ep's memoized answer to
// path, if there is one. A hit is the engine's share of a hot read — one LRU
// lookup and two counters, tens of nanoseconds. Counters only: a span (two
// clock reads) would multiply the cost of the hit itself, so latency is
// observed where evaluation actually happens, in evaluate.
func (e *Engine) memoized(ep *epoch, path string) (answer, bool) {
	e.met.queries.Inc()
	a, ok := ep.memo.Get(path)
	if !ok {
		e.met.memoMisses.Inc()
		return answer{}, false
	}
	e.met.memoHits.Inc()
	return a, true
}

// evaluate answers path at ep past the memo, under ctx, and memoizes the
// answer with its /query body encoded once for every later hit of the epoch.
func (e *Engine) evaluate(ctx context.Context, ep *epoch, path string) (answer, error) {
	sp := obs.StartSpan(e.met.queryDur)
	gen := ep.sn.Generation()
	if sp.Active() {
		// How stale is the epoch being read, in generations, against the
		// newest write any client has been acknowledged for?
		if lead := e.committedGen.Load(); lead > gen {
			e.met.readerLag.ObserveValue(float64(lead - gen))
		} else {
			e.met.readerLag.ObserveValue(0)
		}
	}
	var route string // filled by the evaluation below, for the slow log
	nodes, err := ep.sn.Query(obs.WithRouteSlot(ctx, &route), path)
	if err != nil {
		return answer{}, err
	}
	d := sp.End()
	a := ep.memo.Add(path, answer{nodes: nodes, body: encodeQuery(gen, nodes)})
	e.met.slow.RecordRoute("query", path, route, d, gen)
	return a, nil
}

// Update submits one update to the apply loop and blocks until the loop
// delivers its verdict: the report and error are exactly what View.Apply
// would return against the state the update met. The snapshot covering the
// update is published before the verdict is delivered, so a caller whose
// Update returned applied reads its own write from the very next Query
// (read-your-writes). A context canceled while the update is still queued
// makes the loop skip it — it reports the context's error and is guaranteed
// not to have been applied; cancellation in-flight is honored by the
// pipeline's phase checks, under this update's context alone.
func (e *Engine) Update(ctx context.Context, u rxview.Update) (*rxview.Report, error) {
	res := e.do(ctx, &request{updates: []rxview.Update{u}})
	if len(res.reps) == 0 { // the queue refused it
		return nil, res.err
	}
	return res.reps[0], res.err
}

// Batch submits a sequence of updates to be applied as one unit with
// View.Batch's prefix semantics, serialized against all other writes: it
// stops at its first failure, and the reports and error are what View.Batch
// would return against the state the batch met.
func (e *Engine) Batch(ctx context.Context, updates ...rxview.Update) ([]*rxview.Report, error) {
	res := e.do(ctx, &request{updates: updates})
	return res.reps, res.err
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
	res := e.do(ctx, &request{updates: updates, atomic: true})
	return res.reps, res.err
}

// do is the one submit-and-wait under every entry point: it queues req under
// ctx and blocks for the loop's result. result.gen is the generation of the
// snapshot published with the verdict, stamped by the apply loop at
// delivery: a coalesced run's riders all get the run's last, which covers
// the riders queued after them in the run too; the HTTP layer reports it
// per request. A request the queue refused comes back as a result carrying
// only the error.
func (e *Engine) do(ctx context.Context, req *request) result {
	req.ctx, req.done = ctx, make(chan result, 1)
	if err := e.submit(ctx, req); err != nil {
		return result{err: err}
	}
	return <-req.done
}

// exec runs fn on the apply goroutine as a loop step, serialized with every
// write, and publishes any epoch fn moved the view to. A follower's
// restores and streamed records are loop steps, which is what keeps the
// single-writer discipline intact on replicas, and so are the recovery
// prober's View.Recover calls. Bypasses admission control: replication
// steps end staleness and probes end an outage, so shedding them would be
// backwards.
func (e *Engine) exec(ctx context.Context, fn func() error) error {
	return e.do(ctx, &request{exec: fn}).err
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
	if req.exec == nil {
		if p := e.primary.Load(); p != nil {
			// A follower refuses client writes before they touch the queue;
			// the error carries where they belong.
			e.met.rejected.Inc()
			return &ReadOnlyReplicaError{Primary: *p}
		}
		// Admission control: shed rather than queue a write the loop cannot
		// serve in time.
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
// not add to the run.
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
		if req.exec != nil {
			// A loop step: run it verbatim, publish, deliver its error.
			// Publication is unconditional on success — a checkpoint restore
			// can replace the whole state without moving the generation
			// counter past the published epoch's.
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
		t0 := time.Now()
		var run []*request
		run, carry = e.gather(req)
		e.processRun(run)
		// Feed the admission controller's estimate of how fast the loop
		// retires queued requests.
		e.observeService(time.Since(t0), len(run))
	}
}

// queuedSkip builds the verdict for a request whose context expired while
// it was still queued: one guaranteed-unapplied report per update, and an
// error that restates the request's own cause (a deadline surfaces as
// DeadlineExceeded, not Canceled).
func queuedSkip(r *request, err error) result {
	what := "batch"
	switch {
	case r.atomic:
		what = "tx"
	case len(r.updates) == 1:
		what = r.updates[0].String()
	}
	return result{reps: unappliedReports(r.updates),
		err: fmt.Errorf("server: %s: canceled while queued: %w", what, err)}
}

// unappliedReports is one guaranteed-unapplied report per update, so a
// write that never ran answers with the same shape as one that did.
func unappliedReports(updates []rxview.Update) []*rxview.Report {
	reps := make([]*rxview.Report, len(updates))
	for i, u := range updates {
		reps[i] = &rxview.Report{Op: u.String()}
	}
	return reps
}

// gather collects the run that starts at first, without blocking. An atomic
// group runs alone. Otherwise the run takes the consecutive queued
// non-atomic writes — single updates and batches, insertions and deletions
// alike — up to maxCoalesce updates; it stops at an atomic group or a loop
// step, and at a write that would cross the cap (either returned as carry
// for the next loop iteration), or at an empty queue. The cap never splits
// a write, so a batch larger than it runs whole and alone; an empty batch
// takes one slot, so the cap bounds every run.
func (e *Engine) gather(first *request) (run []*request, carry *request) {
	run = []*request{first}
	if first.atomic {
		return run, nil
	}
	size := func(r *request) int { return max(len(r.updates), 1) }
	n := size(first)
	for n < maxCoalesce {
		select {
		case r, ok := <-e.reqs:
			if !ok {
				return run, nil
			}
			e.pickup(r)
			if r.atomic || r.exec != nil || n+size(r) > maxCoalesce {
				return run, r
			}
			run = append(run, r)
			n += size(r)
		default:
			return run, nil
		}
	}
	return run, nil
}

// processRun applies one run — the loop's only client-write path. A run is
// either consecutive non-atomic writes, staged in order into one prefix
// group on the view (View.BeginBatch), or one atomic group alone
// (View.Begin). Each write's updates are staged under its own context and
// stop at its own first failure, so each gets exactly the reports and error
// View.Apply, View.Batch or View.Begin would have given it against the
// state it met: a rejection, a malformed update or a cancellation (in the
// queue or in flight) fails its own write and nobody else's. One commit
// then covers the run — one log append, one sync, one epoch published —
// which is what amortizes the log across independent submissions under
// concurrent writers.
//
// The verdicts stay honest when that one append is refused: every update
// of a prefix run that applied is in memory and in no log, so every write
// with an applied update — not just the last — gets the indeterminate
// DegradedError (Applied set), unless its own stage failure came first, as
// View.Batch ranks them.
func (e *Engine) processRun(run []*request) {
	res := make([]result, len(run))
	var tx *rxview.Tx // opened by the first write that runs
	var err error     // the view refused to open it (degraded): nothing runs
	staged := 0
	for i, r := range run {
		if cerr := r.ctx.Err(); cerr != nil {
			res[i] = queuedSkip(r, cerr)
			continue
		}
		if tx == nil && err == nil {
			if r.atomic {
				tx, err = e.view.Begin(r.ctx)
			} else {
				tx, err = e.view.BeginBatch()
			}
		}
		if err != nil {
			res[i] = result{reps: unappliedReports(r.updates), err: err}
			continue
		}
		res[i] = stage(tx, r)
		staged += len(res[i].reps)
	}
	switch {
	case tx == nil: // nothing ran
	case run[0].atomic: // gather runs an atomic group alone
		res[0].err = e.endTx(run[0].ctx, tx, res[0].err)
	default:
		if staged > 1 {
			e.met.coalRuns.Inc()
			e.met.coalUpds.Add(uint64(staged))
			e.met.runSize.ObserveValue(float64(staged))
		}
		// The group is the loop's, not any write's, and a prefix commit
		// consults no context: what is staged is applied and must reach the
		// log whoever has stopped waiting for it.
		if cerr := tx.Commit(e.stopCtx); cerr != nil {
			for i := range res {
				if res[i].err == nil && anyApplied(res[i].reps) {
					res[i].err = cerr
				}
			}
		}
	}
	// Publish before fulfilling any promise: a writer whose Update has
	// returned must be able to read its own write (and its generation)
	// from the very next Query.
	stampPublish(e.publish(), res)
	for i, r := range run {
		e.deliver(r, res[i])
	}
}

// stage stages r's updates in order on tx under r's context, stopping at the
// first failure: the reports end with the failed update's, and its error is
// r's.
func stage(tx *rxview.Tx, r *request) result {
	reps := make([]*rxview.Report, 0, len(r.updates))
	for _, u := range r.updates {
		rep, err := tx.Stage(r.ctx, u)
		reps = append(reps, rep)
		if err != nil {
			return result{reps: reps, err: err}
		}
	}
	return result{reps: reps}
}

// endTx closes an atomic group's transaction. A stage failure — a rejection
// dooming the group or a cancellation — rolls the whole group back:
// all-or-nothing has no innocent members. Otherwise it commits, one epoch
// and one record for the group.
func (e *Engine) endTx(ctx context.Context, tx *rxview.Tx, err error) error {
	if err != nil {
		if rbErr := tx.Rollback(); rbErr != nil {
			err = fmt.Errorf("server: tx rollback after %w: %w", err, rbErr)
		}
	} else {
		err = tx.Commit(ctx)
	}
	if err != nil {
		e.met.txRejected.Inc()
	} else {
		e.met.txCommits.Inc()
	}
	return err
}

func anyApplied(reps []*rxview.Report) bool {
	for _, rep := range reps {
		if rep.Applied {
			return true
		}
	}
	return false
}

// deliver fulfills a request's promise exactly once, stamps the covering
// generation, and keeps the applied / rejected counters and the slow-
// commit log. The rejected counter counts client writes: a failed loop
// step (a recovery probe, above all) is not a rejected update. Called only
// from the apply loop, always after the snapshot covering the verdict has
// been published.
func (e *Engine) deliver(r *request, res result) {
	res.gen = e.view.Generation()
	e.committedGen.Store(res.gen)
	if res.err != nil {
		if r.exec == nil {
			e.met.rejected.Inc()
		}
		if errors.Is(res.err, rxview.ErrDegraded) {
			// The view just flipped (or was already) read-only; make sure a
			// prober is working on getting it back.
			e.kickRecovery()
		}
	}
	var total time.Duration
	var op, route string
	for _, rep := range res.reps {
		if rep.Applied {
			e.met.applied.Inc()
			total += rep.Timings.Total()
			op, route = rep.Op, rep.Route
		}
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
	return e.republish()
}

// republish seals and swaps in a fresh epoch unconditionally — the
// replication-step variant of publish, where state can change under an
// unchanged generation — and returns the publication duration. Called only
// from the apply loop.
func (e *Engine) republish() time.Duration {
	sp := obs.StartSpan(e.met.publishDur)
	e.ep.Store(newEpoch(e.view.Snapshot()))
	d := sp.End()
	e.met.snapSwaps.Inc()
	core.ObservePublish(d)
	return d
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
	pcHits, pcMisses := core.PathCacheStats()
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
