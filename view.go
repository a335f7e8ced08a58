package rxview

import (
	"context"
	"io"
	"sync/atomic"

	"rxview/internal/ckpt"
	"rxview/internal/core"
	"rxview/internal/digest"
	"rxview/internal/repl"
	"rxview/internal/update"
	"rxview/internal/wal"
)

// View is a published recursive XML view of a relational database, with
// update support: the full pipeline of the paper — DAG-compressed
// publication (§2.3), XPath evaluation with side-effect detection (§3),
// ΔX→ΔV→ΔR update translation (§4), and garbage collection of what a
// deletion leaves unreachable (§3.4). The paper's auxiliary structures, the
// topological order L and the reachability matrix M, are not part of a
// View: no evaluator that serves reads them (README, "The auxiliary
// structures L and M").
//
// A View is not safe for concurrent use.
type View struct {
	sys *core.System
	db  *DB

	// Durability state; all nil/zero on a view opened without
	// WithDurability.
	log       *wal.Log
	tail      *repl.Tail // where accepted appends are published; nil until ReplSource
	warn      func(msg string)
	ckptEvery uint64      // commits between automatic checkpoints
	ckptGen   uint64      // generation of the newest checkpoint written
	ckptBusy  atomic.Bool // a checkpoint is stalling the writer right now
	ckptIx    *ckpt.Index // the last checkpoint that landed; nil when the next one encodes everything

	// Degraded (read-only) mode, entered when the log refuses a commit
	// record: writes are rejected with ErrDegraded until Recover succeeds,
	// reads keep serving. degradedCause is written and read only on the
	// writer's goroutine; the flag itself is readable from anywhere (health
	// probes), like Checkpointing.
	degraded      atomic.Bool
	degradedCause error
}

// Open publishes σ(I): it evaluates the ATG over the database, compresses
// the result into a DAG, builds the translator's source index, and returns
// the live view. The database stays attached: updates applied to the
// view execute their relational translation ΔR against it.
//
// With WithDurability, Open instead recovers the durable state from the log
// directory (the caller-provided DB supplies the schema; its contents are
// replaced by the recovered instance — or left as they were, if the
// directory is refused), verifies it against the state digests the checkpoint
// and every log record carry, and makes every subsequent commit durable
// before its verdict is returned.
func Open(a *ATG, db *DB, opts ...Option) (*View, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.durDir != "" {
		return openDurable(a, db, &cfg)
	}
	sys, err := core.Open(a.c, db.db, cfg.opts)
	if err != nil {
		return nil, err
	}
	return &View{sys: sys, db: db}, nil
}

// DB returns the database instance the view publishes.
func (v *View) DB() *DB { return v.db }

// Query evaluates an XPath expression over the view and returns the selected
// nodes r[[p]]. Supported: child and descendant-or-self axes, wildcards,
// and predicates on attribute fields / text content, per the fragment of
// §2.1.
func (v *View) Query(ctx context.Context, path string) ([]Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := core.ParsePath(path)
	if err != nil {
		return nil, parseErr(path, err)
	}
	res, err := v.sys.Select(p)
	if err != nil {
		return nil, err
	}
	return nodesOf(v.sys.DAG, v.sys.ATG.Text(v.sys.DAG), res.Selected), nil
}

// Apply runs the full pipeline for one update: DTD validation, XPath
// evaluation with side-effect detection, ΔX→ΔV→ΔR translation, execution of
// ΔR against the database and ΔV against the view, and garbage collection.
// Cancellation is honored between the phases; once ΔR has executed the
// update is carried through, so a cancelled context never leaves the view
// half-collected. It
// is a one-shot group (BeginBatch, Stage, Commit) — for a single update,
// atomicity and prefix semantics coincide; for an all-or-nothing group use
// Begin.
//
// The error, if any, matches ErrParse, ErrSideEffect or ErrNotUpdatable
// under errors.Is when the update was rejected for the corresponding
// reason (ErrTxOpen while a group is open, ErrDegraded when the log refuses
// the commit); the report is always returned with whatever phases completed.
func (v *View) Apply(ctx context.Context, u Update) (*Report, error) {
	op, err := u.compile()
	return v.applyOne(ctx, u.String(), op, err)
}

// DryRun answers the updatability question for one update — the paper's
// §4.1 as an API — without changing anything: it stages the update through
// Apply's own pipeline, storage fault point included, and unwinds it, so
// the report (ΔR and its fresh values too) and the error are what Apply
// gives next. It uses the view's write path while it runs, so it must not
// run concurrently with the view's other calls; inside an open group it
// stages on top of the group's state.
func (v *View) DryRun(ctx context.Context, u Update) (*Report, error) {
	op, err := u.compile()
	if err != nil {
		return &Report{Op: u.String()}, err
	}
	rep, err := v.sys.DryRunCtx(ctx, op)
	return reportOf(rep), wrapErr(op.String(), err)
}

// Batch applies a sequence of updates as one non-atomic group: each update
// is validated, evaluated, translated, applied and maintained individually
// (the result state is identical to the same sequence of Apply calls), and
// on a durable view the whole applied prefix reaches the log in one append
// and one sync instead of one per update. It is the loop over a prefix group
// (BeginBatch) that stops at the first failure; for an all-or-nothing group
// use Begin.
//
// The batch is not atomic: it stops at the first failing update, with every
// earlier update already applied. The returned reports cover
// the processed prefix, ending with a report for the update that failed — on
// cancellation that is an unapplied report for the first update that did not
// run — and the error names that update, never the last one that succeeded;
// a malformed update is named the same way, wherever it sits in the batch.
func (v *View) Batch(ctx context.Context, updates ...Update) ([]*Report, error) {
	tx, err := v.BeginBatch()
	if err != nil {
		return nil, err
	}
	for _, u := range updates {
		if _, err = tx.Stage(ctx, u); err != nil {
			break
		}
	}
	// The applied prefix goes to the log even when the batch stopped early;
	// the error that stopped it outranks a durability failure of the rest.
	if cerr := tx.Commit(ctx); err == nil {
		err = cerr
	}
	return tx.Reports(), err
}

// Execute parses and applies one textual update statement, as a one-shot
// transaction like Apply:
//
//	insert type(field=value, ...) into xpath
//	delete xpath
func (v *View) Execute(ctx context.Context, stmt string) (*Report, error) {
	op, err := update.ParseStatement(v.sys.ATG, stmt)
	return v.applyOne(ctx, stmt, op, parseErr(stmt, err))
}

// applyOne runs one compiled update as a one-shot prefix group — the tail
// Apply and Execute share. For a single update prefix semantics and
// atomicity coincide.
func (v *View) applyOne(ctx context.Context, opName string, op *update.Op, compileErr error) (*Report, error) {
	if compileErr != nil {
		return &Report{Op: opName}, compileErr
	}
	tx, err := v.BeginBatch()
	if err != nil {
		return &Report{Op: opName}, err
	}
	rep, err := tx.stage(ctx, opName, op, nil)
	if cerr := tx.Commit(ctx); err == nil {
		err = cerr
	}
	return rep, err
}

// Stats computes current view statistics.
func (v *View) Stats() Stats { return statsOf(v.sys.Stats()) }

// CheckConsistency verifies the system invariant ΔX(T) = σ(ΔR(I)): the
// incrementally maintained DAG must equal a fresh publication of the current
// database, and the translator's source index must equal a rebuild.
func (v *View) CheckConsistency() error { return v.sys.CheckConsistency() }

// Digest is a view's state digest: a 128-bit multiset hash over the live
// nodes, the edges and the base rows, keyed by (type, attribute) and never by
// internal node id. A durable view steps it forward with every commit and
// stamps it on the commit's log record and on every checkpoint; recovery and
// followers hold what they rebuild to those stamps. Two views are in the same
// state exactly when their digests — or the digests' String forms — are equal.
type Digest = digest.Sum

// Digest returns the view's state digest at its current generation. Only
// durable views and replicas keep one; ok is false, and the digest zero, for
// any other view — it builds no commit records and pays nothing for this.
func (v *View) Digest() (d Digest, ok bool) { return v.sys.Digest() }

// WriteXML serializes the unfolded XML view; maxNodes bounds the tree size
// (recursive views can be exponentially larger than their DAG).
func (v *View) WriteXML(w io.Writer, maxNodes int) error {
	return v.sys.WriteXML(w, maxNodes)
}

// XML returns the serialized view, or an error if it exceeds the budget.
func (v *View) XML(maxNodes int) (string, error) { return v.sys.XML(maxNodes) }
