package rxview

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"rxview/internal/core"
	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/storage"
	"rxview/internal/wal"
)

// Durability glue: the root package owns the checkpoint payload format and
// converts between core's commit records and the wal's on-disk records —
// core cannot import wal (core owns the commit path and must stay
// storage-agnostic) and wal cannot import core, so the two meet here.

// defaultCheckpointEvery is the commit count between automatic checkpoints
// when WithCheckpointEvery is not given.
const defaultCheckpointEvery = 256

// ckptVersion versions the checkpoint payload layout.
const ckptVersion = 1

// openDurable is Open with WithDurability: recover the newest durable state
// from the directory (or establish the genesis epoch from the provided DB),
// install the commit sink, and seal the boot state with a checkpoint.
func openDurable(a *ATG, db *DB, cfg *config) (*View, error) {
	var pol wal.SyncPolicy
	switch cfg.fsync {
	case FsyncAlways:
		pol = wal.SyncAlways
	case FsyncBatch:
		pol = wal.SyncBatch
	case FsyncOff:
		pol = wal.SyncOff
	default:
		return nil, fmt.Errorf("rxview: unknown fsync policy %d", int(cfg.fsync))
	}
	log, boot, err := wal.Open(cfg.durDir, wal.Options{Policy: pol})
	if err != nil {
		return nil, walErr(cfg.durDir, err)
	}

	var sys *core.System
	if boot == nil {
		// Fresh directory: publish from the caller-seeded DB as usual; the
		// checkpoint below makes generation 0 the genesis epoch.
		sys, err = core.OpenBackend(a.c, storage.NewMemory(db.db), cfg.opts)
		if err != nil {
			return nil, err
		}
	} else {
		for _, w := range boot.Warnings {
			warnTo(cfg.warn, "rxview: recovery: %s", w)
		}
		sys, err = restoreSystem(a, db, cfg.opts, cfg.durDir, boot.Gen, boot.State, boot.Records)
		if err != nil {
			return nil, err
		}
	}

	v := &View{
		sys:       sys,
		db:        db,
		log:       log,
		warn:      cfg.warn,
		ckptEvery: uint64(cfg.ckptEvery),
		ckptGen:   sys.Generation(),
	}
	if v.ckptEvery == 0 {
		v.ckptEvery = defaultCheckpointEvery
	}
	// Seal the boot state before serving: recovery never appends to old
	// segments, so the boot checkpoint is what gives the log an active
	// segment again (and prunes what the recovered state supersedes).
	if err := log.WriteCheckpoint(sys.Generation(), encodeCheckpoint(sys)); err != nil {
		return nil, fmt.Errorf("rxview: boot checkpoint: %w", err)
	}
	sys.SetCommitSink(v.sinkRecords, v.afterDurable)
	return v, nil
}

// restoreSystem rebuilds a system from a checkpoint payload sealed at gen
// plus the records that follow it — boot recovery's log suffix, nothing for a
// follower's restore: decode, replace the DB's contents, replay, verify. src
// names where the payload came from in the errors. Everything is decoded
// before the DB is touched, so an undecodable payload changes nothing.
func restoreSystem(a *ATG, db *DB, opts core.Options, src string, gen uint64, state []byte, suffix []wal.Record) (*core.System, error) {
	ck, err := decodeCheckpoint(state)
	if err != nil {
		return nil, &CorruptLogError{Dir: src, Err: err}
	}
	if ck.gen != gen {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("checkpoint payload is for generation %d, its source says %d", ck.gen, gen)}
	}
	d, err := dag.DecodeState(ck.dagState)
	if err != nil {
		return nil, &CorruptLogError{Dir: src, Err: err}
	}
	db.db.Reset()
	for _, tb := range ck.tables {
		for _, t := range tb.tuples {
			if err := db.db.Insert(tb.name, t); err != nil {
				return nil, &CorruptLogError{Dir: src,
					Err: fmt.Errorf("checkpointed tuple rejected: %w", err)}
			}
		}
	}
	recs := make([]core.CommitRecord, len(suffix))
	for i, r := range suffix {
		recs[i] = commitRecordOf(r)
	}
	sys, err := core.Recover(a.c, storage.NewMemory(db.db), d, ck.order, gen, recs, opts)
	if err != nil {
		return nil, &CheckpointMismatchError{Dir: src, Err: err}
	}
	if err := sys.CheckConsistency(); err != nil {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("restored state fails consistency check: %w", err)}
	}
	return sys, nil
}

// A commit record is the same three fields on both sides of the glue: core
// produces and replays it, the wal frames it. These two are the only places
// that know.
func commitRecordOf(r wal.Record) core.CommitRecord {
	return core.CommitRecord{Gen: r.Gen, Delta: r.Delta, DR: r.DR}
}

func walRecordOf(r core.CommitRecord) wal.Record {
	return wal.Record{Gen: r.Gen, Delta: r.Delta, DR: r.DR}
}

// sinkRecords is the core.CommitSink of a durable view: it appends the
// commit's records to the log before the commit verdict is returned. A
// refused append flips the view into degraded mode and surfaces as a
// DegradedError; the log's all-or-nothing append guarantees the refused
// records can never resurface in a later recovery, so Applied:false is a
// true verdict at this layer (Tx.Commit upgrades it to Applied:true for a
// prefix group, whose applied stages stay in memory).
func (v *View) sinkRecords(recs []core.CommitRecord) error {
	wrecs := make([]wal.Record, len(recs))
	for i, r := range recs {
		wrecs[i] = walRecordOf(r)
	}
	if err := v.log.Append(wrecs); err != nil {
		v.markDegraded(err)
		return &DegradedError{Cause: err}
	}
	// The append can succeed and still kill the log (crash-after-fsync:
	// the record is durable, the verdict stands, but the log refuses
	// further writes). Degrade proactively so the next write is rejected
	// up front instead of burning a full pipeline run first.
	if err := v.log.Failed(); err != nil {
		v.markDegraded(err)
	}
	return nil
}

// markDegraded flips the view into degraded (read-only) mode, keeping the
// first cause. Writer-goroutine only.
func (v *View) markDegraded(cause error) {
	if v.degraded.CompareAndSwap(false, true) {
		v.degradedCause = cause
		warnTo(v.warn, "rxview: entering degraded mode: %v", cause)
	}
}

// Degraded reports whether the view is in degraded (read-only) mode after a
// disk failure: writes are rejected with ErrDegraded, snapshot reads keep
// serving the last acknowledged state, and Recover restores read-write.
// Like Checkpointing it is safe to call from any goroutine — it is the
// health-probe hook. Always false without durability.
func (v *View) Degraded() bool { return v.degraded.Load() }

// Recover attempts to leave degraded mode: it reopens the log (repairing
// the torn tail of the active segment, exactly like boot recovery) and
// seals the in-memory state with a fresh checkpoint, then restores
// read-write atomically. No-op when the view is not degraded; ErrTxOpen
// while a transaction is open.
//
// The in-memory state is authoritative here: every refused write was
// reported either guaranteed-unapplied (rolled back, absent from memory) or
// applied-but-not-durable, so checkpointing memory both re-establishes the
// active segment and — honestly — makes the indeterminate prefix durable
// after all. Serving layers call this from a backoff probe routed through
// their writer goroutine; it must not race other View methods.
func (v *View) Recover() error {
	if v.log == nil || !v.degraded.Load() {
		return nil
	}
	if v.sys.InTxn() {
		return ErrTxOpen
	}
	warning, err := v.log.Reopen()
	if warning != "" {
		warnTo(v.warn, "rxview: recovery: %s", warning)
	}
	if err != nil {
		return err
	}
	v.ckptBusy.Store(true)
	defer v.ckptBusy.Store(false)
	if err := v.log.WriteCheckpoint(v.sys.Generation(), encodeCheckpoint(v.sys)); err != nil {
		return err
	}
	v.ckptGen = v.sys.Generation()
	v.degradedCause = nil
	v.degraded.Store(false)
	warnTo(v.warn, "rxview: recovered from degraded mode at generation %d", v.ckptGen)
	return nil
}

// afterDurable runs after each durable commit, once the system is quiescent:
// the periodic checkpoint trigger. A failed checkpoint is reported and
// retried at the next commit — the log keeps every record since the last
// successful one, so nothing is lost, the log just grows.
func (v *View) afterDurable(gen uint64) {
	if gen-v.ckptGen < v.ckptEvery {
		return
	}
	if err := v.Checkpoint(); err != nil {
		warnTo(v.warn, "rxview: checkpoint at generation %d failed: %v", gen, err)
	}
}

// Checkpoint seals the current epoch: the full view state is serialized at
// the current generation, the log rotates to a fresh segment, and the
// prefix the checkpoint supersedes is pruned. Durable views checkpoint
// automatically (WithCheckpointEvery); an explicit call bounds recovery
// time before a planned stop. No-op on a view without durability; ErrTxOpen
// while a transaction is open.
func (v *View) Checkpoint() error {
	if v.log == nil {
		return nil
	}
	if v.sys.InTxn() {
		return ErrTxOpen
	}
	v.ckptBusy.Store(true)
	defer v.ckptBusy.Store(false)
	if err := v.log.WriteCheckpoint(v.sys.Generation(), encodeCheckpoint(v.sys)); err != nil {
		return err
	}
	v.ckptGen = v.sys.Generation()
	return nil
}

// Checkpointing reports whether a checkpoint is being written right now —
// the full state is serialized, fsynced and rotated in, which stalls the
// writer for the duration. Unlike the View's other methods it is safe to
// call from any goroutine: it is the readiness probe serving layers fold
// into /healthz so load balancers drain a node during the stall. Always
// false without durability.
func (v *View) Checkpointing() bool { return v.ckptBusy.Load() }

// Close flushes a final checkpoint and closes the log, so the next Open
// recovers without replaying anything. No-op on a view without durability
// (and on repeat calls); the view itself stays usable, just no longer
// durable.
func (v *View) Close() error {
	if v.log == nil {
		return nil
	}
	err := v.Checkpoint()
	if cerr := v.log.Close(); err == nil {
		err = cerr
	}
	v.log = nil
	v.sys.SetCommitSink(nil, nil)
	return err
}

// warnTo formats a finding into the warning sink, if one is installed.
func warnTo(warn func(string), format string, args ...any) {
	if warn != nil {
		warn(fmt.Sprintf(format, args...))
	}
}

// walErr maps wal-layer sentinel errors into the public taxonomy.
func walErr(dir string, err error) error {
	switch {
	case errors.Is(err, wal.ErrCorrupt):
		return &CorruptLogError{Dir: dir, Err: err}
	case errors.Is(err, wal.ErrMismatch):
		return &CheckpointMismatchError{Dir: dir, Err: err}
	}
	return err
}

// checkpoint is the decoded payload: the relational instance, the DAG with
// its full identity table, the topological order, and the generation — all
// of it at one sealed epoch.
type checkpoint struct {
	gen      uint64
	tables   []ckptTable
	dagState []byte
	order    []dag.NodeID
}

type ckptTable struct {
	name   string
	tuples []relational.Tuple
}

// encodeCheckpoint serializes the full state of the system. The layout is
// version, generation, the tables (tuples sorted by their injective
// encoding, so the payload is byte-stable), the DAG state, and L.
func encodeCheckpoint(sys *core.System) []byte {
	// Each tuple is encoded once, into its sort key; the keys are distinct
	// (the encoding is injective), so the order is total.
	type keyed struct {
		key string
		t   relational.Tuple
	}
	names := sys.DB.Schema.TableNames()
	tables := make([][]keyed, len(names))
	size := 0
	for i, name := range names {
		rel := sys.DB.Rel(name)
		rows := make([]keyed, 0, rel.Len())
		rel.Scan(func(t relational.Tuple) bool {
			key := t.Encode()
			rows = append(rows, keyed{key, t})
			size += len(key) + 1 // what AppendTuple writes: a count, then the key
			return true
		})
		slices.SortFunc(rows, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		tables[i] = rows
	}
	dagState := sys.DAG.AppendState(nil)
	order := sys.Topo.Nodes()

	// The payload is allocated once, at (a little over) its size: grown by
	// append, a slice of megabytes costs several times its size in garbage,
	// and the writer pays for collecting it inside the checkpoint stall.
	size += len(dagState) + binary.MaxVarintLen32*len(order) + 64*(len(names)+1)
	dst := append(make([]byte, 0, size), ckptVersion)
	dst = binary.AppendUvarint(dst, sys.Generation())
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for i, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendUvarint(dst, uint64(len(tables[i])))
		for _, r := range tables[i] {
			dst = relational.AppendTuple(dst, r.t)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(dagState)))
	dst = append(dst, dagState...)
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, id := range order {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func decodeCheckpoint(b []byte) (*checkpoint, error) {
	if len(b) == 0 || b[0] != ckptVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version")
	}
	b = b[1:]
	ck := &checkpoint{}
	var w int
	var u uint64
	next := func(what string) (uint64, error) {
		u, w = binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("checkpoint: bad %s", what)
		}
		b = b[w:]
		return u, nil
	}
	gen, err := next("generation")
	if err != nil {
		return nil, err
	}
	ck.gen = gen
	nt, err := next("table count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nt; i++ {
		nl, err := next("table name length")
		if err != nil {
			return nil, err
		}
		if nl > uint64(len(b)) {
			return nil, fmt.Errorf("checkpoint: table name exceeds input")
		}
		tb := ckptTable{name: string(b[:nl])}
		b = b[nl:]
		cnt, err := next("tuple count")
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < cnt; j++ {
			t, rest, err := relational.DecodeTuple(b)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: table %s tuple %d: %w", tb.name, j, err)
			}
			tb.tuples = append(tb.tuples, t)
			b = rest
		}
		ck.tables = append(ck.tables, tb)
	}
	dl, err := next("DAG state length")
	if err != nil {
		return nil, err
	}
	if dl > uint64(len(b)) {
		return nil, fmt.Errorf("checkpoint: DAG state exceeds input")
	}
	ck.dagState = b[:dl]
	b = b[dl:]
	on, err := next("order length")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < on; i++ {
		id, err := next("order entry")
		if err != nil {
			return nil, err
		}
		ck.order = append(ck.order, dag.NodeID(id))
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(b))
	}
	return ck, nil
}
