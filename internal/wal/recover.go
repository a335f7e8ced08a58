package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// BootState is what recovery found in a log directory: the chosen checkpoint
// and the log suffix that continues it. The caller replays Records onto the
// state decoded from State and resumes at the last record's generation.
type BootState struct {
	Gen      uint64   // generation of the chosen checkpoint
	State    []byte   // the checkpoint payload, opaque to this package
	Records  []Record // log suffix: the records of generations > Gen, in order
	Warnings []string // non-fatal findings: a truncated torn tail, a skipped corrupt checkpoint
}

// Open opens a log directory for appending, recovering whatever durable
// state it holds first. A fresh (or empty) directory returns a nil BootState:
// the caller establishes the genesis epoch with WriteCheckpoint before the
// first Append. Otherwise the newest readable checkpoint is chosen (a corrupt
// newest checkpoint falls back to the one before it, with a warning; a
// segment newer than every checkpoint is a checkpoint that never landed, and
// no finding at all), the segments are replayed past it, and a torn final
// record — an append the crash interrupted — is truncated away with a
// warning. A checksum failure anywhere it cannot be a torn append wraps
// ErrCorrupt; a generation gap between checkpoint and records wraps
// ErrMismatch.
//
// The returned Log has no active segment yet: the caller starts one at the
// generation it recovered to with Seal (the state is already on disk, as the
// chosen checkpoint plus the replayed records) or, at genesis, with
// WriteCheckpoint. Recovery itself never appends to an old segment.
func Open(dir string, opts Options) (*Log, *BootState, error) {
	l, err := create(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	// A checkpoint the crash caught before its rename: megabytes nothing
	// else would ever delete. No writer exists yet, so none is in use.
	tmps, _ := filepath.Glob(filepath.Join(dir, "ckpt-*"+tmpExt))
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
	ckpts, segs := listDir(dir)
	if len(ckpts) == 0 {
		if len(segs) != 0 {
			return nil, nil, fmt.Errorf("wal: %s has %d log segment(s) but no checkpoint: %w", dir, len(segs), ErrCorrupt)
		}
		return l, nil, nil
	}

	boot := &BootState{}
	chosen := false
	for i := len(ckpts) - 1; i >= 0; i-- {
		g := ckpts[i]
		state, err := readCheckpoint(filepath.Join(dir, ckptName(g)), g)
		if err == nil {
			boot.Gen, boot.State, chosen = g, state, true
			break
		}
		boot.Warnings = append(boot.Warnings,
			fmt.Sprintf("checkpoint %d unreadable (%v); falling back", g, err))
	}
	if !chosen {
		return nil, nil, fmt.Errorf("wal: %s: every checkpoint unreadable: %w", dir, ErrCorrupt)
	}

	// Replay every segment in order, keeping the records past the chosen
	// checkpoint. Segments before it still parse (they were synced before
	// the checkpoint superseded them); their records are simply skipped, and
	// that also covers the fallback path, where the segment at the corrupt
	// newest checkpoint carries the suffix we need.
	m := walmetrics()
	prev := boot.Gen
	for i, g := range segs {
		path := filepath.Join(dir, segName(g))
		recs, warn, err := readSegment(path, g, i == len(segs)-1)
		if err != nil {
			return nil, nil, err
		}
		m.replaySegs.Inc()
		if warn != "" {
			boot.Warnings = append(boot.Warnings, warn)
		}
		for _, r := range recs {
			if r.Gen <= boot.Gen {
				continue
			}
			if r.Gen != prev+1 {
				return nil, nil, fmt.Errorf("wal: %s: record for generation %d follows generation %d: %w",
					filepath.Base(path), r.Gen, prev, ErrMismatch)
			}
			prev = r.Gen
			boot.Records = append(boot.Records, r)
			m.replayRecs.Inc()
		}
	}
	m.replayWarns.Add(uint64(len(boot.Warnings)))
	return l, boot, nil
}

// readCheckpoint reads and validates one checkpoint file, returning the
// opaque state payload. Checkpoints are renamed into place after an fsync,
// so any incompleteness or checksum failure is an error — the caller decides
// whether an older checkpoint can absorb it.
func readCheckpoint(path string, gen uint64) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < len(ckptMagic) || !bytes.Equal(b[:len(ckptMagic)], []byte(ckptMagic)) {
		return nil, fmt.Errorf("bad magic")
	}
	b = b[len(ckptMagic):]
	genPayload, rest, res := readFrame(b)
	if res != frameOK {
		return nil, fmt.Errorf("bad generation frame")
	}
	g, ok := u64from(genPayload)
	if !ok {
		return nil, fmt.Errorf("bad generation frame")
	}
	if g != gen {
		return nil, fmt.Errorf("header says generation %d, file name says %d", g, gen)
	}
	state, rest, res := readFrame(rest)
	if res != frameOK {
		return nil, fmt.Errorf("bad state frame")
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return state, nil
}

// readSegment parses one log segment. In the physically last segment a torn
// tail — a frame the file ends inside, or a checksum failure on the very
// last frame — is truncated away on disk (so a later recovery does not
// re-judge it) and reported as a warning. Anywhere else, a bad frame wraps
// ErrCorrupt: fully synced segments have no torn appends, and a bad record
// with valid data after it is damage, not an interrupted write.
//
// The last segment is fsynced before it is accepted — the truncation, and
// whatever records a SyncBatch or SyncOff writer left in the page cache. The
// caller is about to start a newer segment, and from then on this one is
// judged by the strict rule: a truncation or a tail that a power cut took
// back would be a bad frame, or a generation gap, in a non-last segment.
func readSegment(path string, gen uint64, last bool) (recs []Record, warning string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("wal: %s: %w", path, err)
	}
	if last {
		defer func() {
			if err != nil {
				return
			}
			if err = syncPath(path); err != nil {
				recs, err = nil, fmt.Errorf("wal: %s: %w", path, err)
			}
		}()
	}
	name := filepath.Base(path)
	if len(b) == 0 {
		// A crash between segment creation and header write; nothing in it.
		return nil, "", nil
	}
	truncate := func(keep int, why string) (warn string, err error) {
		if !last {
			return "", fmt.Errorf("wal: %s: %s at offset %d: %w", name, why, keep, ErrCorrupt)
		}
		if terr := os.Truncate(path, int64(keep)); terr != nil {
			return "", fmt.Errorf("wal: %s: truncating %s at offset %d: %w", name, why, keep, terr)
		}
		return fmt.Sprintf("%s: truncated %s at offset %d (%d bytes dropped)", name, why, keep, len(b)-keep), nil
	}
	if len(b) < len(segMagic) || !bytes.Equal(b[:len(segMagic)], []byte(segMagic)) {
		if len(b) < len(segMagic) && last {
			warning, err = truncate(0, "torn segment header")
			return nil, warning, err
		}
		return nil, "", fmt.Errorf("wal: %s: bad magic: %w", name, ErrCorrupt)
	}
	off := len(segMagic)
	hdr, rest, res := readFrame(b[off:])
	if res != frameOK {
		// frameEOF here means the file ends right after the magic — the
		// header write itself was interrupted.
		if (res == frameTorn || res == frameEOF) && last {
			warning, err = truncate(0, "torn segment header")
			return nil, warning, err
		}
		return nil, "", fmt.Errorf("wal: %s: bad header frame: %w", name, ErrCorrupt)
	}
	g, ok := u64from(hdr)
	if !ok || g != gen {
		return nil, "", fmt.Errorf("wal: %s: header generation %d does not match file name: %w", name, g, ErrCorrupt)
	}
	off = len(b) - len(rest)
	for {
		payload, rest, res := readFrame(b[off:])
		switch res {
		case frameEOF:
			return recs, "", nil
		case frameTorn:
			warning, err = truncate(off, "torn record")
			return recs, warning, err
		case frameCorrupt:
			// A complete frame with a bad checksum can still be the torn
			// final append when nothing follows the announced frame end —
			// writeback reordering under SyncOff can complete the length
			// prefix without the payload. If parseable or garbage bytes
			// follow, it is damage.
			if last && tailEndsAt(b, off) {
				warning, err = truncate(off, "corrupt final record")
				return recs, warning, err
			}
			return nil, "", fmt.Errorf("wal: %s: corrupt record at offset %d: %w", name, off, ErrCorrupt)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			warn, terr := truncate(off, "undecodable record")
			if terr != nil {
				return nil, "", fmt.Errorf("%w (decode: %w)", terr, err)
			}
			return recs, warn, nil
		}
		recs = append(recs, rec)
		off = len(b) - len(rest)
	}
}

// tailEndsAt reports whether the frame starting at off is the last thing in
// the file: its announced end is at or beyond EOF once the checksum and
// length prefix are accounted for.
func tailEndsAt(b []byte, off int) bool {
	size, n := uvarintAt(b, off)
	if n <= 0 {
		return true
	}
	return off+n+4+int(size) >= len(b)
}

func uvarintAt(b []byte, off int) (uint64, int) {
	var v uint64
	var s uint
	for i := off; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			return v | uint64(c)<<s, i - off + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
		if s > 63 {
			return 0, -1
		}
	}
	return 0, 0
}

// NewestCheckpoint returns the newest readable checkpoint in dir — the one
// recovery would choose — without touching the log segments or modifying
// anything.
func NewestCheckpoint(dir string) (gen uint64, state []byte, path string, err error) {
	ckpts, _ := listDir(dir)
	for i := len(ckpts) - 1; i >= 0; i-- {
		path = filepath.Join(dir, ckptName(ckpts[i]))
		if state, err = readCheckpoint(path, ckpts[i]); err == nil {
			return ckpts[i], state, path, nil
		}
	}
	if len(ckpts) == 0 {
		return 0, nil, "", fmt.Errorf("wal: %s: no checkpoint", dir)
	}
	return 0, nil, "", fmt.Errorf("wal: %s: every checkpoint unreadable (newest: %w): %w", dir, err, ErrCorrupt)
}

// RecordInfo summarizes one log record for inspection tooling.
type RecordInfo struct {
	Gen       uint64
	DeltaOps  int // DAG mutations (ΔV) in the record
	Mutations int // relational mutations (ΔR) in the record
	Bytes     int // framed size on disk
}

// SegmentInfo summarizes one log segment.
type SegmentInfo struct {
	Path    string
	Start   uint64 // generation the segment starts after
	Records []RecordInfo
	Note    string // non-empty when the tail is torn or a record undecodable
}

// CheckpointInfo summarizes one checkpoint file.
type CheckpointInfo struct {
	Path  string
	Gen   uint64
	Bytes int    // state payload size
	Err   string // non-empty when the file fails validation
}

// DirInfo is the inspection view of a log directory.
type DirInfo struct {
	Checkpoints []CheckpointInfo
	Segments    []SegmentInfo
}

// Inspect lists a log directory without recovering from it: every
// checkpoint with its validity, every segment with its records. It never
// modifies the directory and tolerates damage — findings land in the Err
// and Note fields instead of failing the listing.
func Inspect(dir string) (*DirInfo, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("wal: inspect: %w", err)
	}
	ckpts, segs := listDir(dir)
	info := &DirInfo{}
	for _, g := range ckpts {
		path := filepath.Join(dir, ckptName(g))
		ci := CheckpointInfo{Path: path, Gen: g}
		if state, err := readCheckpoint(path, g); err != nil {
			ci.Err = err.Error()
		} else {
			ci.Bytes = len(state)
		}
		info.Checkpoints = append(info.Checkpoints, ci)
	}
	for _, g := range segs {
		path := filepath.Join(dir, segName(g))
		si := SegmentInfo{Path: path, Start: g}
		b, err := os.ReadFile(path)
		if err != nil {
			si.Note = err.Error()
			info.Segments = append(info.Segments, si)
			continue
		}
		si.Records, si.Note = scanRecords(b, g)
		info.Segments = append(info.Segments, si)
	}
	return info, nil
}

// scanRecords parses as many records as the segment bytes allow, reporting
// the first problem as a note rather than an error.
func scanRecords(b []byte, gen uint64) (recs []RecordInfo, note string) {
	if len(b) < len(segMagic) || !bytes.Equal(b[:len(segMagic)], []byte(segMagic)) {
		if len(b) == 0 {
			return nil, "empty (no header)"
		}
		return nil, "bad magic"
	}
	hdr, rest, res := readFrame(b[len(segMagic):])
	if res != frameOK {
		return nil, "bad header frame"
	}
	if g, ok := u64from(hdr); !ok || g != gen {
		return nil, fmt.Sprintf("header generation %d does not match file name", g)
	}
	off := len(b) - len(rest)
	for {
		payload, rest, res := readFrame(b[off:])
		switch res {
		case frameEOF:
			return recs, note
		case frameTorn:
			return recs, fmt.Sprintf("torn record at offset %d", off)
		case frameCorrupt:
			return recs, fmt.Sprintf("corrupt record at offset %d", off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, fmt.Sprintf("undecodable record at offset %d: %v", off, err)
		}
		framed := len(b) - len(rest) - off
		recs = append(recs, RecordInfo{Gen: rec.Gen, DeltaOps: len(rec.Delta), Mutations: len(rec.DR), Bytes: framed})
		off = len(b) - len(rest)
	}
}
