// Package wal is the durability layer under a view: an append-only,
// checksummed write-ahead log of committed transaction groups plus
// sealed-epoch checkpoints of the full view state.
//
// A log directory holds two kinds of files, both named by the generation
// they start at (zero-padded so lexicographic order is numeric order):
//
//	ckpt-<gen>.xvc  — a checkpoint: the complete state at <gen>, opaque to
//	                  this package (the root package serializes it), CRC'd,
//	                  written as ckpt.next and renamed into place.
//	wal-<gen>.xvl   — a log segment: the records of generations
//	                  (<gen>, next checkpoint], one CRC-framed record each.
//
// and, once a checkpoint has been retired, one more:
//
//	ckpt.next       — the file the next checkpoint is written into: the
//	                  checkpoint the last prune retired, or whatever a write
//	                  that failed or crashed left of the next one.
//
// A checkpoint seals the epoch before it: ckpt-G holds the state, the log
// rotates to a fresh segment wal-G, and everything older than the previous
// checkpoint is pruned (two checkpoints are kept so a corrupt newest
// checkpoint still recovers from the one before it plus its segments).
// Recovery reads the newest valid checkpoint and replays the segments at or
// after it; a torn final record — an append interrupted mid-write — is
// truncated away with a warning, while a checksum failure anywhere else
// refuses the log rather than resurrect a wrong state.
//
// A checkpoint is written file first (WriteCheckpoint): ckpt-G is made
// durable, and only then does the log rotate to wal-G, so a failure or a crash
// part-way leaves what was there before plus, at most, ckpt.next — never a
// segment at a generation that nothing on disk reaches. A directory may still
// hold wal-G and no ckpt-G: the view that recovered to G sealed the old tail
// without re-serializing the state it had just read (Seal). Recovery needs no
// case for it — it is the corrupt-newest-checkpoint case without the corrupt
// file: the newest checkpoint that does exist is older, and the replay runs
// across both segments. A segment is made stable before the next one is
// created and a new segment's directory entry is fsynced before anything is
// acknowledged into it, so only the physically last segment can end torn.
//
// A retired checkpoint is recycled, not deleted: the prune renames the first
// checkpoint it retires to ckpt.next, and the next checkpoint is written over
// it from offset 0, truncated to its frame, fsynced and renamed to ckpt-<gen>,
// so the filesystem neither frees a checkpoint's blocks nor allocates them
// again each period. The name matches no checkpoint, segment or temp file, so
// no listing, recovery or boot cleanup reads or deletes it: at rest the
// directory holds Keep + 1 checkpoint-sized files, as many as during a write.
// A reader that opened a checkpoint before it was retired may find it
// overwritten: the generation frame then disagrees with the name it was
// opened by, or the state's CRC fails, and the read is an error — never
// another generation's state. A crash that undoes the retiring rename but
// keeps the bytes written since leaves the same kind of unreadable file,
// older than every kept checkpoint, and the next prune retires it again.
//
// Every checkpoint file is complete and self-contained: recovery reads one
// file and the segments after it, never a chain of files. The writer may
// still read its previous checkpoint while it writes the next one — the
// ranges of the state that did not change since, each checked against the
// CRC-32C it recorded when it wrote them (CheckpointFile says where the
// state starts) — but what it writes is the whole state again.
//
// A Log belongs to one goroutine, the view's writer.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rxview/internal/fault"
	"rxview/internal/obs"
	"rxview/internal/relational"
)

// ErrCorrupt marks a log or checkpoint whose contents fail validation in a
// way recovery must not paper over (a bad checksum before the final record,
// an undecodable record, every checkpoint unreadable). Wrapped errors carry
// the file and offset.
var ErrCorrupt = errors.New("wal: corrupt")

// ErrMismatch marks a log directory whose files are individually valid but
// disagree with each other — a generation gap between the checkpoint and the
// records that should continue it. Replaying past a gap would resurrect a
// state that never existed, so recovery refuses.
var ErrMismatch = errors.New("wal: checkpoint and log disagree")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a commit verdict implies the
	// record survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs every Options.BatchEvery appends (and on checkpoint
	// and close): group commit. A crash can lose the last unsynced batch,
	// never a prefix of it.
	SyncBatch
	// SyncOff never fsyncs: appends still reach the kernel via write(2), so
	// a process kill loses nothing, but an OS crash can lose the tail.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy parses "always", "batch" or "off".
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, batch or off)", s)
}

// Options configures a Log.
type Options struct {
	Policy     SyncPolicy
	BatchEvery int // SyncBatch: fsync every this many appends (default 32)
	Keep       int // checkpoints retained (default 2, minimum 1)
}

func (o *Options) norm() {
	if o.BatchEvery <= 0 {
		o.BatchEvery = 32
	}
	if o.Keep < 1 {
		o.Keep = 2
	}
}

// Log is an open write-ahead log: one active segment file being appended to,
// plus the checkpoint machinery. It is not internally locked; the view's
// single-writer discipline covers it.
type Log struct {
	dir  string
	opts Options

	f        *os.File // active segment
	segStart uint64   // generation the active segment starts after
	unsynced int      // appends since the last fsync (SyncBatch)
	payload  []byte   // one record's encoding, reused across records
	buf      []byte   // the frames of one Append, back to back, reused across appends
	ends     []int    // ends[i] is where record i's frame ends in buf
	size     int64    // bytes in the active segment (offset attribution)
	synced   int64    // the active segment's prefix known stable: Sync skips when it is all of size
	dead     error    // first disk failure; non-nil refuses writes until Reopen
}

const (
	segMagic  = "XVL1"
	ckptMagic = "XVC1"
	segExt    = ".xvl"
	ckptExt   = ".xvc"
	tmpExt    = ".tmp"      // a checkpoint temp file of a build that wrote through temp files
	nextName  = "ckpt.next" // the file the next checkpoint is written into
)

func segName(gen uint64) string  { return fmt.Sprintf("wal-%020d%s", gen, segExt) }
func ckptName(gen uint64) string { return fmt.Sprintf("ckpt-%020d%s", gen, ckptExt) }

// parseGen extracts the generation from a segment or checkpoint file name.
func parseGen(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// create opens the log directory for appending; recovery (Open) chose the
// boot state first. The caller must follow with WriteCheckpoint or Seal to
// give the log an active segment.
func create(dir string, opts Options) (*Log, error) {
	opts.norm()
	if opts.Policy < SyncAlways || opts.Policy > SyncOff {
		return nil, fmt.Errorf("wal: unknown fsync policy %d", int(opts.Policy))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	return &Log{dir: dir, opts: opts}, nil
}

// Append writes the records as one frame each, then syncs per policy. The
// records are durable (to the policy's guarantee) when Append returns nil,
// and Frame then hands back what was written. This is the one place a record
// is encoded: whoever else needs its bytes — the replication tail now, a
// catch-up scan later — gets these.
//
// Append is all-or-nothing: any failure past the write — a short write, a
// failed fsync, an injected crash-before-fsync — truncates the batch back
// out of the segment and returns a *DiskFailureError, so a commit the
// caller rolls back can never resurface in a replay. After such a failure
// the log is dead (every write fails fast with the original cause) until
// Reopen; the single deliberate exception is the injected crash-after-
// fsync, where the record IS durable, this Append succeeds — failing it
// would reject a write that survives recovery — and only subsequent
// appends find the log dead.
//
// xviewlint:hot-path
func (l *Log) Append(recs []Record) error {
	if l.dead != nil {
		return l.diskErr("append", l.size, fmt.Errorf("log has failed: %w", l.dead))
	}
	if l.f == nil {
		return fmt.Errorf("wal: append before the first checkpoint")
	}
	if fault.Active() {
		_ = fault.Hit(fault.WALSlowIO) // latency rules stall, never fail
		if err := fault.Hit(fault.WALAppend); err != nil {
			return l.diskErr("append", l.size, err)
		}
		if err := fault.Hit(fault.WALDiskFull); err != nil {
			return l.diskErr("append", l.size, fmt.Errorf("no space left on device: %w", err))
		}
	}
	l.buf, l.ends = l.buf[:0], l.ends[:0]
	for _, r := range recs {
		l.payload = appendRecord(l.payload[:0], r)
		l.buf = appendFrame(l.buf, l.payload)
		l.ends = append(l.ends, len(l.buf))
	}
	start := l.size
	if _, err := l.f.Write(l.buf); err != nil {
		l.failAppend(start, err)
		return l.diskErr("append", start, err)
	}
	l.size += int64(len(l.buf))
	m := walmetrics()
	m.appends.Inc()
	m.appendRecs.Add(uint64(len(recs)))
	m.bytes.Add(uint64(len(l.buf)))
	m.segBytes.Add(int64(len(l.buf)))
	if fault.Active() {
		if err := fault.Hit(fault.CrashBeforeFsync); err != nil {
			// The process "died" after write(2) but before fsync: the
			// record must not count as durable. Undo it and kill the log.
			l.failAppend(start, err)
			return l.diskErr("append", start, err)
		}
	}
	switch l.opts.Policy {
	case SyncAlways:
		if err := l.appendSync(start); err != nil {
			return err
		}
	case SyncBatch:
		l.unsynced++
		if l.unsynced >= l.opts.BatchEvery {
			if err := l.appendSync(start); err != nil {
				return err
			}
			l.unsynced = 0
		}
	}
	if fault.Active() {
		if err := fault.Hit(fault.CrashAfterFsync); err != nil {
			l.dead = err
		}
	}
	return nil
}

// Frame returns the frame of the i'th record of the last Append, which must
// have returned nil: the exact bytes now in the segment. It aliases the
// log's buffer, so the caller copies what it keeps past the next Append.
func (l *Log) Frame(i int) []byte {
	start := 0
	if i > 0 {
		start = l.ends[i-1]
	}
	return l.buf[start:l.ends[i]]
}

// appendSync is Append's policy fsync with fault injection and typed
// failure. An fsync that fails (really or injected) leaves the durability
// of the just-written batch unknown, and its commit is about to be
// rejected — so the batch is truncated away and the log dies, keeping the
// on-disk suffix equal to the acknowledged history.
func (l *Log) appendSync(start int64) error {
	if err := fault.Hit(fault.WALFsync); err != nil {
		l.failAppend(start, err)
		return l.diskErr("fsync", start, err)
	}
	if err := l.syncTimed(); err != nil {
		l.failAppend(start, err)
		return l.diskErr("fsync", start, err)
	}
	l.synced = l.size
	return nil
}

// failAppend makes a failed append all-or-nothing: the segment is truncated
// back to the batch's start offset and the log refuses further writes until
// Reopen. Truncation itself failing is tolerable — Reopen re-scans and
// repairs the segment tail before the log accepts appends again.
func (l *Log) failAppend(start int64, cause error) {
	if l.f != nil {
		if err := l.f.Truncate(start); err == nil {
			walmetrics().segBytes.Set(start)
		}
	}
	l.size = start
	l.dead = cause
}

// diskErr wraps a failure of the active segment into the typed
// *DiskFailureError, attributing the file and offset.
func (l *Log) diskErr(op string, off int64, err error) error {
	path := ""
	if l.f != nil {
		path = l.f.Name()
	}
	return &DiskFailureError{Path: path, Op: op, Offset: off, Err: err}
}

// Failed returns the first disk failure that killed the log, or nil while
// it is healthy: a failed append or fsync, or a Seal that could not start
// the next segment. A dead log refuses Append, Sync, Seal and
// WriteCheckpoint with the original cause until Reopen.
func (l *Log) Failed() error { return l.dead }

// Reopen revives a dead log in place: it closes the stale descriptor
// (whose state after an I/O failure is unknown), clears the failure, and
// repairs whatever tail the failed append left in the newest segment —
// the same torn-tail tolerance boot recovery applies, legitimate here
// because only the physically last segment can hold an interrupted
// append. The caller must follow with WriteCheckpoint to give the log an
// active segment again (memory, not the disk, is the authority after a
// failure, so the state is written out whole). The returned warning, when
// non-empty, describes a truncated tail.
func (l *Log) Reopen() (warning string, err error) {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.dead = nil
	l.unsynced = 0
	l.size, l.synced = 0, 0
	_, segs := listDir(l.dir)
	if len(segs) > 0 {
		g := segs[len(segs)-1]
		_, warning, err = recoverSegment(filepath.Join(l.dir, segName(g)), g, true)
		if err != nil {
			l.dead = err
			return warning, fmt.Errorf("wal: reopen %s: %w", l.dir, err)
		}
	}
	return warning, nil
}

// Sync flushes the active segment to stable storage regardless of policy.
// A segment with nothing written since its last fsync is not synced again:
// under SyncAlways every Append ends with one, so sealing the log at a
// checkpoint costs no segment fsync there.
func (l *Log) Sync() error {
	if l.dead != nil {
		return l.diskErr("fsync", l.size, fmt.Errorf("log has failed: %w", l.dead))
	}
	if l.f == nil {
		return nil
	}
	l.unsynced = 0
	if l.synced == l.size {
		return nil
	}
	if err := l.syncTimed(); err != nil {
		l.failAppend(l.size, err)
		return l.diskErr("fsync", l.size, err)
	}
	l.synced = l.size
	return nil
}

// CheckpointHeadroom is the free space a checkpoint buffer carries in front
// of the state: the file's magic, generation frame and the state frame's
// length and checksum are written into it, so the state — megabytes — is
// framed where it was encoded instead of being copied behind a header.
const CheckpointHeadroom = 32

// frameCheckpoint turns buf — CheckpointHeadroom free bytes, then the state —
// into the checkpoint file's bytes, in place. File layout: magic, one frame
// holding the generation, one frame holding the (opaque) state; the header is
// right-aligned in the headroom because the state length is a varint.
func frameCheckpoint(gen uint64, buf []byte) []byte {
	state := buf[CheckpointHeadroom:]
	var scratch [CheckpointHeadroom]byte
	hdr := append(scratch[:0], ckptMagic...)
	hdr = appendFrame(hdr, u64bytes(gen))
	hdr = binary.AppendUvarint(hdr, uint64(len(state)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.Checksum(state, castagnoli))
	file := buf[CheckpointHeadroom-len(hdr):]
	copy(file, hdr)
	return file
}

// CheckpointFile is where WriteCheckpoint put ckpt-<gen> and, in it, the
// offset of the first byte of its state of n bytes. The writer reads ranges
// of its previous checkpoint's state back from there instead of encoding them
// again; what it reads is the state's owner's to verify, range by range.
func (l *Log) CheckpointFile(gen uint64, n int) (path string, state int64) {
	return filepath.Join(l.dir, ckptName(gen)), int64(len(ckptMagic) + frameLen(8) + relational.UvarintLen(uint64(n)) + 4)
}

// Seal ends the active segment at gen and starts wal-<gen>: the old segment
// is made stable first (a torn tail is only ever tolerated in the last
// segment), and the directory is fsynced after, so no record is acknowledged
// into a segment whose directory entry a crash can still take back. It is
// the second half of WriteCheckpoint, and all a recovered view needs in
// order to serve: the state it restored is already on disk as a checkpoint
// plus the segments it replayed. A Seal that fails after the old segment is
// closed, or whose directory fsync fails, kills the log: there is no segment
// left that a record could safely be acknowledged into.
func (l *Log) Seal(gen uint64) error {
	if l.dead != nil {
		return l.diskErr("seal", l.size, fmt.Errorf("log has failed: %w", l.dead))
	}
	if l.f != nil {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	if err := l.rotate(gen); err != nil {
		l.dead = err
		return err
	}
	if err := syncPath(l.dir); err != nil {
		l.dead = fmt.Errorf("wal: seal at %d: %w", gen, err)
		return l.dead
	}
	return nil
}

// WriteCheckpoint seals the epoch at gen, file first: the log up to here is
// made stable, ckpt-<gen> is written and made durable from buf —
// CheckpointHeadroom free bytes followed by the state — and only then does
// the log rotate to wal-<gen> (Seal) and the files older than the Keep'th
// newest checkpoint are pruned. It is the one checkpoint protocol: genesis,
// the automatic checkpoint, an explicit Checkpoint, Close and degraded-mode
// recovery all call it on the writer. A failure or a crash part-way leaves
// what was there before plus, at most, ckpt.next (and, if the rotation
// failed, a ckpt-<gen> that the records up to gen already reach): never a
// segment without the checkpoint that makes it readable (genesis), nor an
// empty segment ahead of the records (recovery). A failed file write leaves
// the log appending to its segment; a failed Seal kills it (Failed).
func (l *Log) WriteCheckpoint(gen uint64, buf []byte) error {
	if l.dead != nil {
		return l.diskErr("checkpoint", l.size, fmt.Errorf("log has failed: %w", l.dead))
	}
	if err := fault.Hit(fault.CheckpointWrite); err != nil {
		return &DiskFailureError{Path: filepath.Join(l.dir, ckptName(gen)), Op: "checkpoint", Offset: -1, Err: err}
	}
	sp := obs.StartSpan(walmetrics().ckptDur)
	// The log up to here must be stable before the checkpoint that
	// supersedes it claims the epoch is sealed.
	if err := l.Sync(); err != nil {
		return err
	}
	if err := writeCheckpointFile(l.dir, gen, buf); err != nil {
		return err
	}
	if err := l.Seal(gen); err != nil {
		return err
	}
	prune(l.dir, l.opts.Keep)
	sp.End()
	return nil
}

// DropCheckpoint removes ckpt-<gen>, a checkpoint recovery found unreadable
// (BootState.Unreadable), once the state recovered without it is verified.
// Left in place it would count as one of the Keep newest, and the next prune
// would delete a readable checkpoint to keep it. The segment wal-<gen> stays:
// the older checkpoint needs its records. Best-effort, like prune.
func (l *Log) DropCheckpoint(gen uint64) {
	os.Remove(filepath.Join(l.dir, ckptName(gen)))
}

// writeCheckpointFile is WriteCheckpoint's file: frame buf in place, write it
// over ckpt.next from offset 0 — the checkpoint the last prune retired, or a
// new file — truncate that to the frame, fsync, rename it to ckpt-<gen>,
// fsync the directory.
func writeCheckpointFile(dir string, gen uint64, buf []byte) error {
	file := frameCheckpoint(gen, buf)
	next := filepath.Join(dir, nextName)
	f, err := os.OpenFile(next, os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		return fmt.Errorf("wal: checkpoint %d: %w", gen, err)
	}
	if _, err = f.Write(file); err == nil {
		err = f.Truncate(int64(len(file)))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(next)
		return fmt.Errorf("wal: checkpoint %d: %w", gen, err)
	}
	if err := os.Rename(next, filepath.Join(dir, ckptName(gen))); err != nil {
		os.Remove(next)
		return fmt.Errorf("wal: checkpoint %d: %w", gen, err)
	}
	if err := syncPath(dir); err != nil {
		return fmt.Errorf("wal: checkpoint %d: %w", gen, err)
	}
	m := walmetrics()
	m.ckpts.Inc()
	m.ckptBytes.ObserveValue(float64(len(file)))
	return nil
}

// rotate closes the active segment and starts wal-<gen>.
func (l *Log) rotate(gen uint64) error {
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat segment %s: %w", path, err)
	}
	size, synced := st.Size(), int64(0) // a segment reopened with bytes in it may be unsynced
	if size == 0 {
		hdr := append([]byte(segMagic), nil...)
		hdr = appendFrame(hdr, u64bytes(gen))
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return fmt.Errorf("wal: segment header %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: segment header %s: %w", path, err)
		}
		size, synced = int64(len(hdr)), int64(len(hdr))
	}
	l.f, l.segStart, l.unsynced, l.size, l.synced = f, gen, 0, size, synced
	m := walmetrics()
	m.rotations.Inc()
	m.segBytes.Set(size)
	return nil
}

// prune retires checkpoints beyond the keep newest and removes segments older
// than the oldest kept checkpoint. The first checkpoint it retires becomes
// ckpt.next, the file the next checkpoint is written into; any others are
// removed. Best-effort: pruning failures leave garbage, never lose data.
func prune(dir string, keep int) {
	ckpts, segs := listDir(dir)
	if len(ckpts) <= keep {
		return
	}
	keepFrom := ckpts[len(ckpts)-keep]
	for i, g := range ckpts[:len(ckpts)-keep] {
		path := filepath.Join(dir, ckptName(g))
		if i > 0 || os.Rename(path, filepath.Join(dir, nextName)) != nil {
			os.Remove(path)
		}
	}
	for _, g := range segs {
		if g < keepFrom {
			os.Remove(filepath.Join(dir, segName(g)))
		}
	}
}

// Close syncs and closes the active segment. The caller typically writes a
// final checkpoint first.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// listDir returns the checkpoint and segment generations present, ascending.
func listDir(dir string) (ckpts, segs []uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), "ckpt-", ckptExt); ok {
			ckpts = append(ckpts, g)
		} else if g, ok := parseGen(e.Name(), "wal-", segExt); ok {
			segs = append(segs, g)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs
}

func u64bytes(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

// u64from reads what u64bytes wrote; b comes from disk, so its length is
// checked, not assumed.
func u64from(b []byte) (uint64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(b), true
}

// syncPath fsyncs a file by path, or a directory — the entries created or
// renamed in it survive a crash from then on.
func syncPath(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
