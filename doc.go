// Package rxview is a from-scratch Go implementation of "Updating Recursive
// XML Views of Relations" (Choi, Cong, Fan, Viglas; ICDE 2007 / JCST 2008):
// schema-directed XML publishing of relational data (ATGs) with DAG
// compression, XPath evaluation with side-effect detection over the DAG,
// and translation of XML view updates to relational updates under key
// preservation (PTIME deletions, SAT-based insertions).
//
// This root package is the public API. Open publishes a database through an
// ATG and returns a View; View.Query, View.Apply, View.DryRun and View.Batch
// are the context-aware entry points to the paper's pipeline, with
// functional options (WithForceSideEffects, WithSideEffectPolicy) and typed
// errors (ErrSideEffect, ErrNotUpdatable,
// ErrParse, ErrTxOpen, ErrTxDone). NewRegistrar and NewSynthetic bundle
// the paper's datasets; Builder defines new views from scratch.
//
// Updates are transactional. View.Begin opens an atomic group (Tx): each
// staged update executes speculatively against the live view — Tx.Query and
// later stages read the transaction's own writes — and Tx.Commit applies
// all of it or none, restoring the view and the database exactly to the
// pre-Begin state on rejection or Rollback. A
// committed transaction advances View.Generation by exactly 1, however many
// updates it staged, so snapshot readers step from group to group and never
// observe a mid-transaction state. View.BeginBatch opens the same type's
// other mode, a prefix group: every staged update stands alone, under its
// own context and with the verdict Apply would give it — a rejection fails
// its own update and nothing else — and Tx.Commit hands the whole applied
// prefix (one generation per applied update) to the log in one append.
// Apply, Execute and Batch are one-shot prefix groups; Batch is the loop
// that stops at the first failure.
//
// An update's XPath evaluation takes one of two routes, chosen from the
// compiled path's shape alone: a path with a value-equality filter (every
// update class of the paper's §5 has one) is evaluated over the ancestor
// cone of the nodes the filter can hold at; any other path by §3.2's
// O(|p|·|V|) sweep of the whole view. Both run the same state-set propagation and return identical
// selections, Ep(r) and side-effect witnesses — package internal/xpath has
// the argument, README.md ("XPath evaluation") the sizes — and Report.Route
// names the route an update's path took. A read needs the selection alone,
// so a query whose path starts // then one label or * step then the value
// filter (//C[key="r"]/sub/C, //C[val="v"]) takes a third route: from the
// nodes the filter holds at downward, with no ancestor cone.
//
// The paper keeps two auxiliary structures, the topological order L and the
// reachability matrix M, and maintains them together (∆(M,L), §3.4) because
// its evaluator reads M for // and for side-effect screening and runs along
// L. The state-set evaluator that serves here reads the DAG only — its
// sweep orders the nodes it visits itself — so a View carries neither:
// deletions collect the nodes left without a parent, and that is all the
// maintenance a write does. L and M live on in internal/paper, which the
// paper's experiments (Fig.10b, Fig.11 phase (c), Table 1, the ablations)
// use to build both and keep them exact from each commit's DAG delta. See
// README.md ("The auxiliary structures L and M") for the numbers behind that
// decision.
//
// A View is not safe for concurrent use: the pipeline mutates the DAG in
// place. Two primitives support the concurrent
// serving layer built on top (package rxview/server): View.Snapshot seals
// the current state into an immutable epoch whose Query/Stats/XML are safe
// for any number of goroutines, and View.Generation counts applied
// mutations, so every snapshot identifies the exact write-history prefix it
// reflects. Sealing is copy-on-write — O(Δ) in what changed since the last
// snapshot, not O(n) in the view — so a serving layer can afford one epoch
// per applied write. Reads served from snapshots are snapshot-consistent
// — they observe the view after some prefix of the applied updates, never
// a partial one — while writes stay serialized on the live View. Query
// texts compile once through a process-wide compiled-path cache shared by
// View.Query, Snapshot.Query and the server handlers.
//
// Views are in-memory by default; WithDurability(dir) adds a write-ahead
// log of committed write units plus sealed-epoch checkpoints, and Open then
// recovers the newest durable state from dir before serving: the checkpoint
// is held to the state digest it carries and to the fingerprint of the ATG it
// was written under, and the log is replayed with the digest compared after
// every record (View.Digest; the full CheckConsistency stays an operator's
// and a test's tool — `xviewctl verify` — and never runs on a reopen). A
// directory in another on-disk format than this build's is refused, not
// upgraded. Every commit — an Apply, a Batch member, a whole Begin/Commit
// group — is in the log before
// its verdict returns, under the fsync policy of WithFsync; View.Close
// seals a final checkpoint so the next Open replays nothing. Every
// checkpoint — automatic (WithCheckpointEvery) or explicit — runs on the
// writer, file first: the file is durable before the log rotates, and a
// failed one is retried at the next commit. Damage
// surfaces as ErrCorruptLog or ErrCheckpointMismatch (a torn final record
// is truncated with a WithRecoveryWarn warning instead). Views opened
// without WithDurability pay nothing for any of this.
//
// Failures while serving are part of the contract, not panics. A disk
// failure mid-commit flips a durable view into degraded (read-only) mode
// instead of crashing: writes are refused with ErrDegraded, reads keep
// serving, and View.Recover (log reopen + a fresh checkpoint of the
// in-memory state) restores read-write at exactly the generation
// degradation froze. Every write verdict is honest about application:
// a DegradedError with Applied false is guaranteed unapplied (safe to
// retry), Applied true means the write is in memory but not durable
// until recovery checkpoints it — callers must not blindly retry those;
// when the log refuses a prefix group's one append, that is the verdict
// of every applied update of the group.
// EnableChaos arms the deterministic fault-injection framework behind
// the WAL and the execution of ΔR (FaultPoints lists the catalog) so exactly
// these paths are testable on demand; see README.md ("Resilience").
//
// A durable view's log doubles as a replication change log.
// View.ReplSource streams the gen-contiguous suffix of commit records
// (sealed WAL segments, then a live in-memory tail) and hands out the
// newest checkpoint. The record is declared once, in internal/wal
// beside its codec, and encoded once, by the log's append: a follower
// receives the bytes the log wrote, which the commit sink publishes to
// the tail only after the append was accepted. OpenReplica builds the
// follower side, whose Restore and ApplyRecord replay that stream
// through the same machinery boot recovery uses — one generation per
// record, refusing gaps (ErrCheckpointMismatch) and pruned-past
// positions (ErrReplicaStale) so a follower re-syncs rather than replay
// into a wrong state. The HTTP transport, the read-only follower engine
// (421 + primary address on writes) and multi-tenant hosting live in
// rxview/server; see README.md ("Replication & multi-tenancy").
//
// The whole stack is instrumented through the internal/obs telemetry core
// (rxview/obs forwards the few names programs outside the module need):
// the pipeline's per-phase timings (Timings carries the same split, publish
// included), the compiled-path cache, the WAL and the serving engine record
// into atomic counters and fixed-bucket latency histograms: a memo hit
// records counters only, and obs.SetEnabled(false) strips every timer down
// to one atomic load per site.
// The server exposes it all as Prometheus text on GET /metrics; see
// README.md ("Observability").
//
// The implementation lives under internal/; internal/core wires it together
// behind this package. See README.md for a tour and for how to run the
// benchmarks. internal/bench regenerates every table and figure of the
// paper's evaluation:
//
//	go test -run '^$' -bench . -benchmem ./internal/bench/
package rxview
