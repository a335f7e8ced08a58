package wal

// Streaming read path for replication. A primary's change-log source reads
// committed records back out of the log directory while the writer keeps
// appending to it, so everything here is strictly read-only: unlike boot
// recovery, a catch-up scan never truncates a torn tail — the tail of the
// active segment is simply where the available history ends (the writer may
// be mid-append, or about to roll the bytes back after a failed fsync).
// Callers bound what they emit by a durability watermark they track
// themselves; ScanFrom's max parameter is that gate.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrPruned marks a catch-up request for generations the log no longer
// holds: checkpointing pruned the segments that carried them. The caller
// restarts from the newest checkpoint instead.
var ErrPruned = errors.New("wal: generations pruned")

// FrameReader decodes a stream of CRC-framed records from r: a segment's
// record region as it arrives on a socket, where parseSegment has it in a
// buffer (FuzzParseSegment and FuzzFrameReader hold the two to the same
// records and the same stop). Next returns
// io.EOF at a clean stream end, io.ErrUnexpectedEOF when the stream ends
// inside a frame, and an error wrapping ErrCorrupt on a checksum or decode
// failure.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r (typically an HTTP response body).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Next reads one framed record.
func (fr *FrameReader) Next() (Record, error) {
	size, err := fr.length()
	if err != nil {
		return Record{}, err
	}
	if size > maxFrame {
		return Record{}, fmt.Errorf("wal: frame of %d bytes exceeds limit: %w", size, ErrCorrupt)
	}
	need := 4 + int(size)
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	b := fr.buf[:need]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	sum := binary.BigEndian.Uint32(b)
	payload := b[4:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, fmt.Errorf("wal: frame checksum mismatch: %w", ErrCorrupt)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %w", err, ErrCorrupt)
	}
	return rec, nil
}

// length reads a frame's uvarint length prefix with readFrame's verdicts:
// io.EOF before its first byte, io.ErrUnexpectedEOF when the stream ends
// inside it, ErrCorrupt when it overflows 64 bits. Uvarint calls ten
// continuation bytes short, not overflowing, so the buffer holds one more.
func (fr *FrameReader) length() (uint64, error) {
	var b [binary.MaxVarintLen64 + 1]byte
	for i := range b {
		c, err := fr.r.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				if i == 0 {
					return 0, io.EOF
				}
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("wal: frame length: %w", err)
		}
		b[i] = c
		if size, n := binary.Uvarint(b[:i+1]); n != 0 {
			if n < 0 {
				break
			}
			return size, nil
		}
	}
	return 0, fmt.Errorf("wal: frame length overflows 64 bits: %w", ErrCorrupt)
}

// Oldest returns the oldest generation a catch-up scan of dir can start
// from: the start generation of the oldest retained segment. A follower at
// a generation below it must refetch the checkpoint.
func Oldest(dir string) (uint64, error) {
	_, segs := listDir(dir)
	if len(segs) == 0 {
		return 0, fmt.Errorf("wal: %s: no log segments", dir)
	}
	return segs[0], nil
}

// ScanFrom reads the records of generations in (from, max] out of dir
// without modifying anything — the replication catch-up path. Each comes
// back with the frame it was read from, so the caller forwards the bytes the
// log wrote and encodes nothing. The records are gen-contiguous from from+1;
// a gap wraps ErrMismatch and anything parsed.refuse refuses wraps
// ErrCorrupt, but a torn tail of the physically last segment just ends the
// scan, silently and without repair (that is recovery's job, and only
// recovery's): the writer may be appending there concurrently, and max (the
// caller's durability watermark) is what separates committed history from
// in-flight bytes. When the segments that held from+1 have been pruned by
// checkpointing, ScanFrom wraps ErrPruned.
func ScanFrom(dir string, from, max uint64) ([]Framed, error) {
	if max <= from {
		return nil, nil
	}
	_, segs := listDir(dir)
	if len(segs) == 0 {
		return nil, fmt.Errorf("wal: %s: no log segments: %w", dir, ErrPruned)
	}
	if from < segs[0] {
		return nil, fmt.Errorf("wal: %s: generation %d predates oldest segment %d: %w",
			dir, from+1, segs[0], ErrPruned)
	}
	var out []Framed
	prev := from
	for i, g := range segs {
		// Segment wal-g holds generations in (g, next checkpoint]; when the
		// following segment starts at or before from, this one is entirely
		// behind the cursor.
		if i+1 < len(segs) && segs[i+1] <= from {
			continue
		}
		path := filepath.Join(dir, segName(g))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %s: %w", path, err)
		}
		p := parseSegment(b, g)
		if err := p.refuse(segName(g), i == len(segs)-1); err != nil {
			return nil, err
		}
		for _, r := range p.recs {
			if r.Gen <= from {
				continue
			}
			if r.Gen > max {
				return out, nil
			}
			if r.Gen != prev+1 {
				return nil, fmt.Errorf("wal: %s: record for generation %d follows generation %d: %w",
					segName(g), r.Gen, prev, ErrMismatch)
			}
			prev = r.Gen
			out = append(out, r)
		}
	}
	return out, nil
}
