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
	// Unreadable lists the checkpoints newer than the chosen one that could
	// not be read. Non-empty means recovery fell back: the directory holds
	// one good checkpoint, and the caller should write another before it
	// serves (DropCheckpoint, then WriteCheckpoint).
	Unreadable []uint64
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
		state, err := ReadCheckpoint(filepath.Join(dir, ckptName(g)), g)
		if err == nil {
			boot.Gen, boot.State, chosen = g, state, true
			break
		}
		boot.Unreadable = append(boot.Unreadable, g)
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
		recs, warn, err := recoverSegment(path, g, i == len(segs)-1)
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
			boot.Records = append(boot.Records, r.Record)
			m.replayRecs.Inc()
		}
	}
	m.replayWarns.Add(uint64(len(boot.Warnings)))
	return l, boot, nil
}

// ReadCheckpoint reads and validates one checkpoint file, returning the
// opaque state payload. Checkpoints are renamed into place after an fsync,
// so any incompleteness or checksum failure is an error — the caller decides
// whether an older checkpoint can absorb it.
func ReadCheckpoint(path string, gen uint64) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCheckpoint(b, gen)
}

// parseCheckpoint is ReadCheckpoint on the file's bytes; the state it returns
// is a span of them. It accepts exactly what frameCheckpoint writes: a frame
// length that is not in its shortest form would pass the checksums, which
// cover the payloads only, so the file's size is held to its contents.
func parseCheckpoint(file []byte, gen uint64) ([]byte, error) {
	if len(file) < len(ckptMagic) || !bytes.Equal(file[:len(ckptMagic)], []byte(ckptMagic)) {
		return nil, fmt.Errorf("bad magic")
	}
	genPayload, rest, res := readFrame(file[len(ckptMagic):])
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
	if want := len(ckptMagic) + frameLen(len(genPayload)) + frameLen(len(state)); len(file) != want {
		return nil, fmt.Errorf("%d bytes where the frames take %d: a length is not in its shortest form", len(file), want)
	}
	return state, nil
}

// recoverSegment is recovery's reading of one segment: refuse what the
// shared rule refuses, and in the physically last segment cut a torn tail
// off on disk — so a later recovery does not re-judge it — and report it as
// a warning.
//
// The last segment is fsynced before it is accepted — the truncation, and
// whatever records a SyncBatch or SyncOff writer left in the page cache. The
// caller is about to start a newer segment, and from then on this one is
// judged by the strict rule: a truncation or a tail that a power cut took
// back would be a bad frame, or a generation gap, in a non-last segment.
func recoverSegment(path string, gen uint64, last bool) (recs []Framed, warning string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("wal: %s: %w", path, err)
	}
	name := filepath.Base(path)
	p := parseSegment(b, gen)
	if err := p.refuse(name, last); err != nil {
		return nil, "", err
	}
	if p.stop > stopEmpty {
		// Past clean and empty, refuse lets through only a torn tail, and
		// only here in the last segment.
		if err := os.Truncate(path, int64(p.good)); err != nil {
			return nil, "", fmt.Errorf("wal: %s: truncating %s: %w", name, p.why, err)
		}
		warning = fmt.Sprintf("%s: truncated %s (%d bytes dropped)", name, p.why, len(b)-p.good)
	}
	if last {
		if err := syncPath(path); err != nil {
			return nil, "", fmt.Errorf("wal: %s: %w", path, err)
		}
	}
	return p.recs, warning, nil
}

// NewestCheckpoint returns the newest readable checkpoint in dir — the one
// recovery would choose — without touching the log segments or modifying
// anything.
func NewestCheckpoint(dir string) (gen uint64, state []byte, path string, err error) {
	ckpts, _ := listDir(dir)
	for i := len(ckpts) - 1; i >= 0; i-- {
		path = filepath.Join(dir, ckptName(ckpts[i]))
		if state, err = ReadCheckpoint(path, ckpts[i]); err == nil {
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
	Gen       uint64 `json:"gen"`
	DeltaOps  int    `json:"delta_ops"` // DAG mutations (ΔV) in the record
	Mutations int    `json:"mutations"` // relational mutations (ΔR) in the record
	Bytes     int    `json:"bytes"`     // framed size on disk
	Digest    string `json:"digest"`    // state digest the record leaves
}

// SegmentInfo summarizes one log segment.
type SegmentInfo struct {
	Path    string       `json:"path"`
	Start   uint64       `json:"start"` // generation the segment starts after
	Records []RecordInfo `json:"records,omitempty"`
	Note    string       `json:"note,omitempty"` // why the parse stopped short of a clean end: torn tail, damage
}

// CheckpointInfo summarizes one checkpoint file.
type CheckpointInfo struct {
	Path  string `json:"path"`
	Gen   uint64 `json:"gen"`
	Bytes int    `json:"bytes"`         // state payload size
	Err   string `json:"err,omitempty"` // non-empty when the file fails validation
	// What the payload says about itself. It is opaque to this package, so
	// Inspect leaves these empty and the payload's owner fills them in: the
	// state digest it carries and the fingerprint of the grammar it was
	// written under.
	Digest string `json:"digest,omitempty"`
	ATG    string `json:"atg,omitempty"`
}

// DirInfo is the inspection view of a log directory.
type DirInfo struct {
	Checkpoints []CheckpointInfo `json:"checkpoints"`
	Segments    []SegmentInfo    `json:"segments"`
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
		if state, err := ReadCheckpoint(path, g); err != nil {
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
		p := parseSegment(b, g)
		for _, r := range p.recs {
			si.Records = append(si.Records, RecordInfo{Gen: r.Gen, DeltaOps: len(r.Delta), Mutations: len(r.DR), Bytes: len(r.Frame), Digest: r.Digest.String()})
		}
		si.Note = p.why
		info.Segments = append(info.Segments, si)
	}
	return info, nil
}
