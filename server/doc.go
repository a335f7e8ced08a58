// Package server makes a published XML view safely shareable under
// concurrent load. The underlying rxview.View is single-writer by design —
// the paper's pipeline (translate → side-effect check → garbage collection)
// mutates the DAG in place — so this package
// adds the serving layer on top instead of sprinkling locks through the
// engine:
//
//   - Reads are snapshot-isolated and wait-free. An Engine publishes an
//     immutable epoch snapshot (the sealed DAG + the view's generation
//     counter) through an atomic
//     pointer; queries evaluate against whatever epoch they load and never
//     block behind a write or observe a half-maintained structure.
//
//   - Publication is O(Δ). Sealing an epoch is copy-on-write: unchanged
//     chunks of per-node state are shared between the live view and every
//     sealed epoch, and the writer copies only what it dirties, when it
//     dirties it. Publishing after a write therefore costs microseconds
//     independent of view size (the deep-clone path survives inside the
//     implementation as the aliasing-test oracle and differential
//     baseline, not as a serving primitive). Versioned epochs change nothing
//     about the consistency model: the same states are published at the
//     same generations, merely cheaper.
//
//   - Repeated reads are memoized per epoch. Query texts compile once
//     through a process-wide LRU (parse errors included — malformed
//     queries fail fast), and each published epoch carries a result memo
//     keyed by path text: the memo's lifetime is the epoch, so a hit can
//     never cross generations. Memo hits return a shared Node slice;
//     callers must treat it as read-only. Each entry also holds its POST
//     /query response body, encoded once by the miss that filled it, so a
//     hit over HTTP writes stored bytes: no JSON encoding, and no timeout
//     context (HandlerOptions.Timeout bounds evaluations and writes).
//
//   - Writes are serialized through a single-writer apply loop. A client
//     write is a list of updates — Engine.Update sends a list of one,
//     Engine.Batch and Engine.Tx longer ones — submitted to a channel-fed
//     goroutine, and there is one write path through it: whatever
//     non-atomic writes are queued at that moment — single updates and
//     batches, insertions and deletions alike, up to 64 updates, never
//     splitting a batch — are staged one after another into one open
//     prefix group on the view (View.BeginBatch), each under its own
//     submitter's context, and share one commit: on a durable view one log
//     append and one sync per run instead of one per update, and one epoch
//     published. Staging keeps the writes independent: each stops at its
//     own first failure and gets, through a promise channel, exactly the
//     reports and error View.Apply or View.Batch would have given it
//     against the state it met — a rejection, a malformed update or a
//     cancellation fails its own submission and nobody else's.
//     Cancellation is honored both in-queue (the write is skipped,
//     guaranteed unapplied, and reports its context's own error — a
//     deadline stays DeadlineExceeded) and in-flight (the pipeline's phase
//     checks abort it). Verdicts stay honest when the run's one append is
//     refused: every update of the run that applied is in memory and in no
//     log, so every write with one gets the indeterminate
//     rxview.DegradedError with Applied set, not only the last — unless its
//     own stage failure came first. An atomic group runs alone, between
//     runs, and so does each loop step: a follower's replication step or a
//     recovery probe.
//
//   - Atomic groups go through Engine.Tx (HTTP: POST /tx): the loop runs
//     the group as one view transaction (View.Begin) — every update stages
//     speculatively, reading the group's earlier writes — and commits all
//     of it or none. A committed group advances the generation by exactly
//     1 and publishes exactly one epoch covering all its updates; a
//     rejected group (HTTP 409) publishes nothing, because the view never
//     moved. Snapshot readers therefore cannot observe a mid-transaction
//     state: epochs step from group to group, never into one. This is the
//     complement of /batch, which keeps its documented prefix semantics —
//     a failed batch leaves the successful prefix applied (one generation
//     per applied update), where a failed tx leaves nothing.
//
//   - After every write the loop seals and publishes a fresh snapshot, so
//     a reader's result always corresponds to an exact prefix of the write
//     history, identified by the generation it carries, and a writer whose
//     Update returned reads its own write from the very next Query.
//
// Consistency model: reads are snapshot-consistent (every query observes
// the state after some prefix of the applied write units — an update, a
// batch member, or a whole committed transaction — never a partial one),
// writes are strictly serialized in submission-processing order, and reads
// never wait on writes. A reader may observe a slightly stale epoch; it
// will never observe a torn one.
//
// Durability composes transparently: on a view opened with
// rxview.WithDurability, every verdict the apply loop delivers — update,
// batch member, committed transaction — is already in the write-ahead log
// when the caller sees it (durable-before-verdict), so killing the process
// after any acknowledged write loses nothing; restart recovery replays the
// log and the engine serves the same generations. The engine itself needs
// no changes for this: the sink sits under View's commit path. Close the
// engine before View.Close so the final checkpoint sees a quiescent view.
//
// The engine also owns the resilience half of the serving contract:
//
//   - Overload protection. Admission control sheds a write up front —
//     *OverloadedError, errors.Is-matchable to ErrOverloaded, carrying a
//     RetryAfter estimate from an EWMA of recent service times — when the
//     queue depth passes the shed watermark (WithShedWatermark) or when
//     the request's own deadline cannot survive the estimated queue wait.
//     HTTP maps it to 429 + Retry-After. Reads are never shed; they do
//     not cross the queue. A write whose context expires while queued is
//     skipped, guaranteed unapplied.
//
//   - Degraded-mode serving. When a WAL failure flips the view read-only,
//     the loop keeps draining the queue — refusing writes with the view's
//     DegradedError verdicts, serving reads from the published epoch —
//     and a recovery prober retries View.Recover, as a loop step, with
//     jittered exponential backoff (25ms doubling to 2s; the follow loop of a
//     Replica retries on the same schedule) until the log heals;
//     /healthz reports "degraded" meanwhile. Stats exposes WritesShed,
//     Degraded and Recoveries.
//
// NewHandler exposes the Engine over HTTP/JSON, and Serve runs a handler —
// NewHandler's, a Gate or a Registry — on an address until its context is
// canceled, then drains and releases what it serves; the cmd/xviewd daemon
// and xviewctl -serve share both. The package imports the implementation
// under internal/ directly; its API speaks the root package's types.
//
// # Readiness
//
// One function decides readiness, and Gate.State, the handler's /healthz
// and the Registry's /views and /healthz all report its verdict. The first
// matching row wins:
//
//	state          /healthz  when
//	loading, ...   503       a Gate before SetReady: its boot phase
//	degraded       503       the log refused a commit (see above)
//	checkpointing  503       HandlerOptions.Checkpointing reports a stall
//	following      503       HandlerOptions.Follow is not within its watermark
//	ready          200       otherwise
//
// # Replication
//
// A durable primary additionally serves its change log (HandlerOptions.Repl):
// GET /repl/checkpoint returns the newest sealed checkpoint and
// GET /repl/stream?from=N long-polls CRC-framed commit records. NewReplica
// runs the follower side — it restores from the checkpoint, replays the
// stream through the apply loop as replication steps (one sealed epoch per
// record, so follower reads are the same wait-free snapshot reads), and
// reconnects with jittered backoff, re-syncing from a fresh checkpoint on a
// generation gap or a 410. A follower engine refuses writes with
// ErrReadOnlyReplica, which HTTP maps to 421 Misdirected Request carrying
// the primary's address (X-Xview-Primary header + "primary" body field).
// With HandlerOptions.Follow set, readiness answers "following" until
// the replica is within WithFollowWatermark generations of the primary's
// durable watermark, and GET /repl/info reports either side's position for
// xviewctl repl status. A caught-up /repl/stream poll is held 25s before
// the follower reconnects.
//
// What a follower may expose, and when: a commit reaches the change log (the
// commit sink, then the repl tail) before Engine.Update returns to the
// writer that submitted it, so a follower may publish generation g — and
// answer reads at g — before the primary's writer has been acknowledged
// for g. What holds instead: a follower never exposes a generation the
// primary did not commit (g ≤ the primary's generation at any later
// instant), what it answers at g is exactly the primary's state after its
// first g write units, and each reader sees generations that never go
// backwards. A client that needs read-your-writes across nodes compares
// the generation of its acknowledgement with the one its read reports.
//
// Registry hosts many named views in one process behind /v/{name}/...,
// each an independent Gate with its own engine, writer loop and private
// metric registry (HandlerOptions.PrivateMetricsOnly): /views lists the
// tenants with the readiness each one's own /healthz gives, the top-level
// /healthz is 200 only when every tenant is ready, and the top-level
// /metrics serves only the process-wide families.
//
// # Telemetry
//
// Every Engine owns a private obs.Registry (package rxview/internal/obs): the
// counters, queue-depth gauge and latency histograms its hot paths record
// into, plus a ring-buffer slow log (SetSlowThreshold). The HTTP layer
// scrapes it together with the process-wide registry on GET /metrics
// (Prometheus text) and GET /debug/vars (JSON); GET /debug/slow dumps the
// slow log. Recording sites use only the atomic fast-path obs API — one or
// two atomic operations, nothing on the memo-hit path but counters (the
// obshotpath analyzer enforces it). NewGate wraps a Handler with a readiness
// lifecycle: while the view is still replaying its WAL the gate answers
// 503 with the recovery state, /livez answers 200 throughout, and
// SetReady atomically switches to the real handler.
//
// # Writer annotations
//
// The single-writer contract — the live View is touched by the apply
// goroutine only; every other goroutine reads published epochs, atomics
// and the View methods documented as safe for concurrent use (Degraded) —
// is checked dynamically: `go test -race ./server` runs
// TestReadSideNeverTouchesLiveView, which calls every Engine method and
// HTTP route documented as safe for concurrent use while a writer
// commits, beside the stress tests (TestStressPrefixConsistentReads,
// TestEngineChaosSoak) that catch a store into a published epoch or a
// second writer. A new read-side method joins that test's reader loop.
// Why this is a test and not an analyzer: internal/lint's package comment.
//
// Two comment directives are read by xviewlint's obshotpath analyzer
// (internal/lint, run via `go run ./cmd/xviewlint ./...`):
//
//	// xviewlint:writer-loop   on a function: the apply loop itself
//	                           (Engine.run)
//	// xviewlint:hot-path      on a function: a latency-critical root
//	                           outside the writer graph (Engine.Query,
//	                           the POST /query handler)
//
// The transitive closure of intra-package calls from those roots may
// record telemetry only through the atomic fast-path obs API, never the
// locked Gather/snapshot side.
//
// A directive is a statement of architecture, not a suppression: adding
// one widens what the analyzer checks, so new annotations get the same
// review scrutiny as a lock-ordering change. Deliberate per-line
// exceptions use the //lint:ignore grammar described in the repository
// README ("Static analysis"), which requires a justification.
package server
