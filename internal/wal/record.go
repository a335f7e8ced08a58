package wal

import (
	"encoding/binary"
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
// refuses a replay that ends anywhere else. It is zero in a record read from a
// log written before digests existed; such a record verifies nothing.
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

// appendRecord encodes the record payload (no framing): generation, delta,
// ΔR, and the digest as a fixed trailer. The trailer is what makes the payload
// self-describing — a follower receives frames without a segment header to
// carry a version — and it is always written; only a legacy payload ends
// right after ΔR.
func appendRecord(dst []byte, r Record) []byte {
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

// decodeRecord decodes one record payload; the payload must be consumed
// exactly, by the digest trailer or, in a legacy payload, without one.
func decodeRecord(b []byte) (Record, error) {
	var r Record
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
	switch len(b) {
	case 0:
	case digest.Size:
		r.Digest = digest.Decode(b)
	default:
		return r, fmt.Errorf("wal: record: %d trailing bytes", len(b))
	}
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
func frameLen(n int) int {
	var v [binary.MaxVarintLen64]byte
	return binary.PutUvarint(v[:], uint64(n)) + 4 + n
}

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
