package wal

import (
	"errors"
	"fmt"
)

// ErrDiskFailure marks an I/O failure on the durability layer's own files —
// a failed append write, fsync or checkpoint write. The concrete type is
// *DiskFailureError. It is distinct from ErrCorrupt (the bytes on disk are
// wrong) and ErrMismatch (the files disagree with each other): a disk
// failure means the hardware refused the operation, and the log refuses
// further writes until Reopen so a half-durable state can never accrete.
var ErrDiskFailure = errors.New("wal: disk failure")

// DiskFailureError attributes one disk failure: the file, the operation
// ("append", "fsync" or "checkpoint"), and — for segment operations — the
// byte offset where the failing record batch started, so the damage can be
// located without re-parsing the segment. Offset is -1 when none applies
// (a checkpoint file).
type DiskFailureError struct {
	Path   string
	Op     string
	Offset int64
	Err    error
}

func (e *DiskFailureError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("wal: disk failure: %s %s at offset %d: %v", e.Op, e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("wal: disk failure: %s %s: %v", e.Op, e.Path, e.Err)
}

// Is matches ErrDiskFailure.
func (e *DiskFailureError) Is(target error) bool { return target == ErrDiskFailure }

// Unwrap exposes the underlying I/O (or injected) error.
func (e *DiskFailureError) Unwrap() error { return e.Err }
