package rxview

import (
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
// validity, every log segment with its records. Damage is reported in the
// Err/Note fields rather than failing the listing.
func InspectWAL(dir string) (*WALInfo, error) { return wal.Inspect(dir) }

// CheckpointDetail describes the newest readable checkpoint in a durability
// directory: the sealed epoch a recovery would boot from.
type CheckpointDetail struct {
	Path       string      `json:"path"`
	Gen        uint64      `json:"gen"`
	Tables     []TableInfo `json:"tables"`      // base relations with row counts
	Nodes      int         `json:"nodes"`       // identity-table size, dead entries included
	LiveNodes  int         `json:"live_nodes"`  // nodes alive at the sealed epoch
	Edges      int         `json:"edges"`       // DAG edges at the sealed epoch
	OrderLen   int         `json:"order_len"`   // entries in the serialized L
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
	ck, err := decodeCheckpoint(state)
	if err != nil {
		return nil, &CorruptLogError{Dir: dir, Err: err}
	}
	d, err := dag.DecodeState(ck.dagState)
	if err != nil {
		return nil, &CorruptLogError{Dir: dir, Err: err}
	}
	det := &CheckpointDetail{
		Path:       path,
		Gen:        gen,
		Nodes:      d.Cap(),
		LiveNodes:  d.NumNodes(),
		Edges:      d.NumEdges(),
		OrderLen:   len(ck.order),
		StateBytes: len(state),
	}
	for _, tb := range ck.tables {
		det.Tables = append(det.Tables, TableInfo{Name: tb.name, Rows: len(tb.tuples)})
	}
	return det, nil
}
