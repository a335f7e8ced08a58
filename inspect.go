package rxview

import (
	"fmt"
	"math"

	"rxview/internal/ckpt"
	"rxview/internal/core"
	"rxview/internal/dag"
	"rxview/internal/wal"
)

// Offline inspection of a durability directory — the API behind
// `xviewctl wal inspect` and `xviewctl checkpoint`. Both functions are
// read-only: unlike Open, they never truncate a torn tail or write a boot
// checkpoint, so they are safe to point at the live directory of a running
// process.

// The inspection view of a durability directory is the log's own (the JSON
// field names are on the wal types): a WALInfo lists every checkpoint as a
// WALCheckpoint and every segment as a WALSegment of WALRecords.
type (
	WALInfo       = wal.DirInfo
	WALSegment    = wal.SegmentInfo
	WALRecord     = wal.RecordInfo
	WALCheckpoint = wal.CheckpointInfo
)

// InspectWAL lists a durability directory: every checkpoint with its
// validity, the state digest it carries and the fingerprint of the ATG it was
// written under, every log segment with its records and theirs. Damage —
// a file in another format included — is reported in the Err/Note fields
// rather than failing the listing.
func InspectWAL(dir string) (*WALInfo, error) {
	info, err := wal.Inspect(dir)
	if err != nil {
		return nil, err
	}
	for i := range info.Checkpoints {
		c := &info.Checkpoints[i]
		if c.Err != "" {
			continue
		}
		state, err := wal.ReadCheckpoint(c.Path, c.Gen)
		if err == nil {
			var ck *ckpt.Payload
			if ck, _, err = ckpt.DecodeHeader(state); err == nil {
				c.Digest, c.ATG = ck.Digest.String(), ck.ATG.String()
				continue
			}
		}
		c.Err = err.Error()
	}
	return info, nil
}

// CheckpointDetail describes the newest readable checkpoint in a durability
// directory: the sealed epoch a recovery would boot from.
type CheckpointDetail struct {
	Path       string      `json:"path"`
	Gen        uint64      `json:"gen"`
	Version    int         `json:"version"`     // on-disk format: wal.Format, the only one a reader accepts
	Digest     string      `json:"digest"`      // state digest of the sealed epoch
	ATG        string      `json:"atg"`         // fingerprint of the ATG it was written under
	Tables     []TableInfo `json:"tables"`      // base relations with row counts
	Nodes      int         `json:"nodes"`       // identity-table size, dead entries included
	LiveNodes  int         `json:"live_nodes"`  // nodes alive at the sealed epoch
	Edges      int         `json:"edges"`       // DAG edges at the sealed epoch
	StateBytes int         `json:"state_bytes"` // payload size on disk
}

// InspectCheckpoint decodes the newest readable checkpoint in dir and
// returns its metadata. It fails (wrapping ErrCorruptLog where applicable)
// when no checkpoint is readable.
func InspectCheckpoint(dir string) (*CheckpointDetail, error) {
	gen, state, path, err := wal.NewestCheckpoint(dir)
	if err != nil {
		return nil, walErr(dir, err)
	}
	ck, err := ckpt.Decode(state)
	if err != nil {
		return nil, &CorruptLogError{Dir: dir, Err: err}
	}
	d, err := dag.DecodeState(ck.DAGState)
	if err != nil {
		return nil, &CorruptLogError{Dir: dir, Err: err}
	}
	det := &CheckpointDetail{
		Path:       path,
		Gen:        gen,
		Version:    wal.Format,
		Digest:     ck.Digest.String(),
		ATG:        ck.ATG.String(),
		Nodes:      d.Cap(),
		LiveNodes:  d.NumNodes(),
		Edges:      d.NumEdges(),
		StateBytes: len(state),
	}
	for _, tb := range ck.Tables {
		det.Tables = append(det.Tables, TableInfo{Name: tb.Name, Rows: len(tb.Rows)})
	}
	return det, nil
}

// VerifyDir is the ground-truth check of a durability directory, for an
// operator: it restores into db the state a recovery of dir would serve — the
// newest readable checkpoint, then the log past it, verified record by record
// like any restore — and runs the full CheckConsistency on the result: the
// view republished from the restored base tables must equal the restored
// view. It returns the generation and state digest it verified. Like the
// other inspections it never modifies the directory; a torn tail simply ends
// the log.
func VerifyDir(a *ATG, db *DB, dir string) (gen uint64, d Digest, err error) {
	gen, state, _, err := wal.NewestCheckpoint(dir)
	if err != nil {
		return 0, Digest{}, walErr(dir, err)
	}
	recs, err := wal.ScanFrom(dir, gen, math.MaxUint64)
	if err != nil {
		return 0, Digest{}, walErr(dir, err)
	}
	suffix := make([]wal.Record, len(recs))
	for i, r := range recs {
		suffix[i] = r.Record
	}
	sys, err := restoreSystem(a, db, core.Options{}, dir, gen, state, suffix)
	if err != nil {
		return 0, Digest{}, err
	}
	if err := sys.CheckConsistency(); err != nil {
		return 0, Digest{}, fmt.Errorf("rxview: %s: the state at generation %d fails the consistency check: %w", dir, sys.Generation(), err)
	}
	d, _ = sys.Digest()
	return sys.Generation(), d, nil
}
