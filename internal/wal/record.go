package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/relational"
)

// Record is everything a committed write unit changed, in replayable form,
// and the one declaration of it: core produces and replays it under the name
// core.CommitRecord, this package frames it, a follower receives the frame.
// Gen is the generation the unit produced; Delta is the chronological DAG
// delta (ΔV at the instance level, deletions included — dag.DeltaOp, not the
// grouped change summary); DR is the executed relational group update ΔR.
// Replaying the record against the state at generation Gen-1 reproduces the
// state at Gen exactly, node identities included — and Digest is what checks
// that sentence: the state digest at Gen, stepped by the commit that built the
// record and again by whoever replays it (core.ApplyCommitRecord), which
// refuses a replay that ends anywhere else. Every record carries one: a record
// decoded with a zero Digest is refused by a replay that keeps a digest.
type Record struct {
	Gen    uint64
	Delta  []dag.DeltaOp
	DR     []relational.Mutation
	Digest digest.Sum
}

// Framed is a record read back from a segment together with its frame: the
// bytes Append wrote for it, checksum verified, aliasing the buffer the
// segment was read into. A follower is sent Frame as it stands.
type Framed struct {
	Record
	Frame []byte
}

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on the
// platforms that matter and a better error-detection polynomial than IEEE.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Format is the number of the on-disk format: the first byte of every record
// payload and of every checkpoint payload. A follower receives frames without
// a segment header, so the record states its format itself. Readers accept
// this number and no other; a change to either payload bumps it.
const Format = 3

// errFormat marks a payload that states another format than Format — written
// by another build, not torn by a crash: parseSegment never tolerates it.
var errFormat = errors.New("foreign on-disk format")

// CheckFormat holds the first byte of a record or checkpoint payload to
// Format; the error of a payload in another format names both numbers.
func CheckFormat(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty payload")
	}
	if payload[0] != Format {
		return fmt.Errorf("format %d, this build reads format %d: %w", payload[0], Format, errFormat)
	}
	return nil
}

// appendRecord encodes the record payload (no framing): the format, the
// generation, the delta, ΔR and the digest.
func appendRecord(dst []byte, r Record) []byte {
	dst = append(dst, Format)
	dst = binary.AppendUvarint(dst, r.Gen)
	dst = binary.AppendUvarint(dst, uint64(len(r.Delta)))
	for _, op := range r.Delta {
		dst = dag.AppendDelta(dst, op)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.DR)))
	for _, m := range r.DR {
		dst = relational.AppendMutation(dst, m)
	}
	return r.Digest.Append(dst)
}

// decodeRecord decodes one record payload, which must state Format
// (CheckFormat) and end with the digest.
func decodeRecord(b []byte) (Record, error) {
	var r Record
	if err := CheckFormat(b); err != nil {
		return r, fmt.Errorf("wal: record: %w", err)
	}
	b = b[1:]
	gen, n := binary.Uvarint(b)
	if n <= 0 {
		return r, fmt.Errorf("wal: record: bad generation")
	}
	r.Gen = gen
	b = b[n:]
	nd, n := binary.Uvarint(b)
	if n <= 0 {
		return r, fmt.Errorf("wal: record: bad delta count")
	}
	b = b[n:]
	for i := uint64(0); i < nd; i++ {
		op, rest, err := dag.DecodeDelta(b)
		if err != nil {
			return r, fmt.Errorf("wal: record: delta[%d]: %w", i, err)
		}
		r.Delta = append(r.Delta, op)
		b = rest
	}
	nm, n := binary.Uvarint(b)
	if n <= 0 {
		return r, fmt.Errorf("wal: record: bad ΔR count")
	}
	b = b[n:]
	for i := uint64(0); i < nm; i++ {
		m, rest, err := relational.DecodeMutation(b)
		if err != nil {
			return r, fmt.Errorf("wal: record: ΔR[%d]: %w", i, err)
		}
		r.DR = append(r.DR, m)
		b = rest
	}
	if len(b) != digest.Size {
		return r, fmt.Errorf("wal: record: %d bytes where the digest takes %d", len(b), digest.Size)
	}
	r.Digest = digest.Decode(b)
	return r, nil
}

// appendFrame wraps a payload in the on-disk frame: uvarint length, 4-byte
// big-endian CRC-32C of the payload, payload. The length comes first so a
// reader can distinguish a torn write (file ends inside the announced
// frame) from corruption (complete frame, wrong checksum).
func appendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// frameLen is the number of bytes appendFrame writes for a payload of n bytes.
func frameLen(n int) int { return relational.UvarintLen(uint64(n)) + 4 + n }

// frameResult classifies one frame-read attempt.
type frameResult int

const (
	frameOK      frameResult = iota
	frameEOF                 // clean end: no bytes left
	frameTorn                // file ends inside a frame — an interrupted append
	frameCorrupt             // complete frame with a wrong checksum, or an unparseable header
)

// readFrame reads one frame from b. It returns the payload, the remaining
// bytes, and the classification. On frameTorn and frameCorrupt the remaining
// bytes are the unread suffix starting at the bad frame.
func readFrame(b []byte) (payload, rest []byte, res frameResult) {
	if len(b) == 0 {
		return nil, nil, frameEOF
	}
	size, n := binary.Uvarint(b)
	if n == 0 {
		// Uvarint ran out of bytes: a torn length prefix.
		return nil, b, frameTorn
	}
	if n < 0 || size > maxFrame {
		return nil, b, frameCorrupt
	}
	body := b[n:]
	if uint64(len(body)) < 4+size {
		return nil, b, frameTorn
	}
	sum := binary.BigEndian.Uint32(body)
	payload = body[4 : 4+size]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, b, frameCorrupt
	}
	return payload, body[4+size:], frameOK
}

// maxFrame bounds a single frame payload (64 MiB) so a corrupted length
// prefix cannot make the reader treat the rest of the file as one frame.
const maxFrame = 64 << 20
