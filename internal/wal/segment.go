package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// stop says why a segment parse ended. The values from stopTornHeader to
// stopUndecodable are the ones an append the process died in can leave
// behind; the order is what parsed.refuse tests.
type stop int

const (
	_                stop = iota // zero, clean: the bytes end on a frame boundary
	stopEmpty                    // a zero-length file: created, header never written
	stopTornHeader               // the file ends inside the magic or the header frame
	stopTornRecord               // the file ends inside a record's frame
	stopCorruptFinal             // a complete frame, wrong checksum, nothing after its announced end
	stopUndecodable              // a frame that checks out around a payload that does not decode
	stopDamage                   // bad magic or header, a bad frame with bytes after it, or a foreign format
)

// parsed is what a segment's bytes hold: the records of the good prefix,
// where that prefix ends (0 when not even the header is good), and the
// finding that ended the parse — why says what and where, and is empty at a
// clean end.
type parsed struct {
	recs []Framed
	good int
	stop stop
	why  string
}

// parseSegment walks the bytes of segment wal-<gen>: magic, header frame,
// then one frame per record. It is the only reader of a segment; boot
// recovery, the catch-up scan and the inspection listing differ in what
// they do about the stop, never in how they find it.
func parseSegment(b []byte, gen uint64) parsed {
	var p parsed
	if len(b) == 0 {
		// A crash between segment creation and header write.
		return p.end(stopEmpty, "empty (no header)")
	}
	if len(b) < len(segMagic) {
		return p.end(stopTornHeader, "torn segment header at offset 0")
	}
	if string(b[:len(segMagic)]) != segMagic {
		return p.end(stopDamage, "bad magic")
	}
	hdr, rest, res := readFrame(b[len(segMagic):])
	switch res {
	case frameEOF, frameTorn:
		// frameEOF: the file ends right after the magic — the header write
		// itself was interrupted.
		return p.end(stopTornHeader, "torn segment header at offset 0")
	case frameCorrupt:
		return p.end(stopDamage, "bad header frame")
	}
	if g, ok := u64from(hdr); !ok || g != gen {
		return p.end(stopDamage, "header generation %d does not match file name", g)
	}
	p.good = len(b) - len(rest)
	for {
		payload, rest, res := readFrame(b[p.good:])
		switch res {
		case frameEOF:
			return p
		case frameTorn:
			return p.end(stopTornRecord, "torn record at offset %d", p.good)
		case frameCorrupt:
			// A complete frame with a bad checksum can still be the torn
			// final append when nothing follows the announced frame end —
			// writeback reordering under SyncOff can complete the length
			// prefix without the payload. If parseable or garbage bytes
			// follow, it is damage.
			if tailEndsAt(b, p.good) {
				return p.end(stopCorruptFinal, "corrupt final record at offset %d", p.good)
			}
			return p.end(stopDamage, "corrupt record at offset %d", p.good)
		}
		rec, err := decodeRecord(payload)
		if errors.Is(err, errFormat) {
			// Whole and checksummed: another build wrote it, no crash tore it.
			return p.end(stopDamage, "record at offset %d: %v", p.good, err)
		}
		if err != nil {
			return p.end(stopUndecodable, "undecodable record at offset %d: %v", p.good, err)
		}
		next := len(b) - len(rest)
		p.recs = append(p.recs, Framed{Record: rec, Frame: b[p.good:next]})
		p.good = next
	}
}

// end is p stopped short of a clean end, with the finding.
func (p parsed) end(s stop, format string, args ...any) parsed {
	p.stop, p.why = s, fmt.Sprintf(format, args...)
	return p
}

// tailEndsAt reports whether the frame starting at off is the last thing in
// the file: its announced end is at or beyond EOF once the checksum and
// length prefix are accounted for (or it has no readable length at all).
func tailEndsAt(b []byte, off int) bool {
	size, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return true
	}
	return off+n+4+int(size) >= len(b)
}

// refuse is the rule every reader of a segment applies to a parse: a clean
// or empty segment is fine anywhere; a stop that an interrupted append
// explains is fine in the physically last segment, the only one an append
// can have been interrupted in (the writer may even be in it right now);
// anything else wraps ErrCorrupt — fully synced segments have no torn
// appends, and a bad record with data after it is damage, not an
// interrupted write. What a reader does with a tolerated stop is its own:
// recovery truncates at good, a scan ends there, an inspection notes why.
func (p parsed) refuse(name string, last bool) error {
	if p.stop <= stopEmpty || last && p.stop != stopDamage {
		return nil
	}
	return fmt.Errorf("wal: %s: %s: %w", name, p.why, ErrCorrupt)
}
