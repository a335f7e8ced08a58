// Package ckpt is the checkpoint payload: its encoder, its decoder, and the
// index a writer keeps of the payload it wrote last.
//
// A payload is the full state of a view at one generation: the format
// (wal.Format), the generation, the state digest, the grammar fingerprint,
// the tables and the DAG state. Every payload is complete and
// self-contained. What makes a checkpoint cheap is how it is written, not
// what it holds: each table's rows and the DAG's identity table are laid out
// in ranges of relational.RangeLen slots, and a range no write touched since
// the previous checkpoint landed is read back from that checkpoint's file,
// CRC-checked, instead of encoded again (Encode, Index).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/relational"
	"rxview/internal/wal"
)

// State is what a checkpoint holds: everything at one sealed epoch.
type State struct {
	Gen    uint64
	Digest digest.Sum      // of the state below
	ATG    atg.Fingerprint // of the grammar the state was published under
	DB     *relational.Database
	DAG    *dag.DAG
}

// ranged is a structure written in ranges of relational.RangeLen slots: a
// relation's rows, the DAG's identity table.
type ranged interface {
	RangeClean(r int) bool
	AppendRange(dst []byte, r int) []byte
}

// Index is what a writer keeps of the payload it wrote last, so the next one
// can read back the ranges that did not change since instead of encoding them
// again: the file and where the payload starts in it, the relations and the
// DAG the payload was taken from, and, per range, where its bytes lie in the
// payload and their CRC-32C. It is only good for those objects: a table whose
// relation is not the one recorded, or a DAG that is not, is encoded whole.
type Index struct {
	path string
	base int64 // file offset of the payload's first byte

	rels     []*relational.Relation // in TableNames order
	dag      *dag.DAG
	spans    []span
	sections []int // section i's spans are spans[sections[i]:sections[i+1]]: the tables, then the identity table
	reused   int
}

// span is one range's bytes in the payload.
type span struct {
	off int // from the payload's first byte
	n   int32
	crc uint32
}

// section returns the spans of section i: table i, or, past the tables,
// the identity table.
func (ix *Index) section(i int) []span { return ix.spans[ix.sections[i]:ix.sections[i+1]] }

// Reused is the payload bytes Encode read back from the previous file and
// verified, instead of encoding them.
func (ix *Index) Reused() int { return ix.reused }

// Landed records that the payload the index describes is on disk: in the
// file at path, from offset base on. It marks the relations and the DAG
// clean, so the next Encode reads back every range no write touches until
// then. Only a payload that landed may be called so: an index whose file
// was not written must be dropped, and the next Encode given nil.
func (ix *Index) Landed(path string, base int64) {
	ix.path, ix.base = path, base
	for _, rel := range ix.rels {
		rel.MarkClean()
	}
	ix.dag.MarkClean()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes s into one buffer: wal.CheckpointHeadroom free bytes
// for the file's framing, then the payload. It returns the index of the
// payload; Landed makes it the prev of the next call once the buffer is on
// disk.
//
// The writer pays for this inside the checkpoint stall, and for collecting
// what it leaves behind, so the buffer is sized before anything is encoded
// and everything is written once, in order, straight into it: each relation
// knows the encoded length of its rows (Relation.EncodedLen), and the DAG
// the length of its state (DAG.StateLen). A range that prev recorded and that
// is still clean is not encoded: its slot is left for the bytes prev's file
// holds there, read into it once the rest is written, and each such range is
// held to the CRC-32C prev recorded for it. A range that fails the check — a
// file damaged, truncated, deleted or replaced since — is encoded in place
// after all, so the payload is the same bytes whatever the disk did. With no
// prev every range is encoded.
//
// A table's rows are written in Scan order — slot order, the order the
// relation holds them in, not the order of their values — because no reader
// needs another: the decoder loads rows in whatever order it is given, and a
// restore is held to the state digest, a multiset hash that no order changes.
// The digest, not the payload's bytes, is what identifies a state: one
// in-memory state always writes the same bytes, but two nodes at one
// generation may write their rows in different orders.
func Encode(s State, prev *Index) (buf []byte, next *Index) {
	vlen := relational.UvarintLen
	names := s.DB.Schema.TableNames()
	next = &Index{rels: make([]*relational.Relation, len(names)), dag: s.DAG, sections: make([]int, 0, len(names)+2)}
	ranges := s.DAG.Ranges()
	tablesEnd := wal.CheckpointHeadroom + 1 + vlen(s.Gen) + digest.Size + len(s.ATG) + vlen(uint64(len(names)))
	for i, name := range names {
		rel := s.DB.Rel(name)
		next.rels[i] = rel
		ranges += rel.Ranges()
		tablesEnd += vlen(uint64(len(name))) + len(name) + vlen(uint64(rel.Len())) + rel.EncodedLen()
	}
	stateLen := s.DAG.StateLen()
	size := tablesEnd + vlen(uint64(stateLen)) + stateLen
	next.spans = make([]span, 0, ranges)

	buf = make([]byte, size)
	e := &encoder{buf: buf, next: next}
	if prev != nil {
		e.reads = make([]read, 0, ranges)
	}
	dst := append(buf[:wal.CheckpointHeadroom], wal.Format)
	dst = binary.AppendUvarint(dst, s.Gen)
	dst = s.Digest.Append(dst)
	dst = append(dst, s.ATG[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for i, name := range names {
		rel := next.rels[i]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendUvarint(dst, uint64(rel.Len()))
		var old []span
		if prev != nil && len(prev.rels) == len(names) && prev.rels[i] == rel {
			old = prev.section(i)
		}
		e.begin(old)
		for r := range rel.Ranges() {
			dst = e.put(dst, rel, r)
		}
	}
	if len(dst) != tablesEnd {
		panic(fmt.Sprintf("ckpt: tables measured to end at %d, encoded to %d", tablesEnd, len(dst)))
	}
	dst = binary.AppendUvarint(dst, uint64(stateLen))
	stateStart := len(dst)
	var old []span
	if prev != nil && prev.dag == s.DAG {
		old = prev.section(len(prev.rels))
	}
	e.begin(old)
	dst = s.DAG.AppendState(dst, func(dst []byte, r int) []byte { return e.put(dst, s.DAG, r) })
	if len(dst)-stateStart != stateLen {
		panic(fmt.Sprintf("ckpt: DAG state measured %d bytes, encoded %d", stateLen, len(dst)-stateStart))
	}
	next.sections = append(next.sections, len(next.spans))
	if len(dst) != size {
		panic(fmt.Sprintf("ckpt: payload measured %d bytes, encoded %d", size, len(dst)))
	}
	if len(e.reads) > 0 {
		e.readBack(prev)
	}
	return buf, next
}

// encoder is one Encode's bookkeeping: the spans of the index it builds, and
// the ranges it left to read back.
type encoder struct {
	buf   []byte
	next  *Index
	old   []span // the previous payload's spans of the section being written
	reads []read
}

// read is a range whose slot waits for the previous file's bytes.
type read struct {
	at   int // in buf
	from span
	src  ranged
	r    int
	span int // its entry in next.spans
}

// begin starts a section whose spans in the previous payload were old.
func (e *encoder) begin(old []span) {
	e.old = old
	e.next.sections = append(e.next.sections, len(e.next.spans))
}

// put writes range r of src at the end of dst: it encodes a dirty range, and
// leaves the slot of a clean one that the previous payload holds for
// readBack.
func (e *encoder) put(dst []byte, src ranged, r int) []byte {
	at := len(dst)
	off := at - wal.CheckpointHeadroom
	if r < len(e.old) && src.RangeClean(r) {
		from := e.old[r]
		e.reads = append(e.reads, read{at: at, from: from, src: src, r: r, span: len(e.next.spans)})
		e.next.spans = append(e.next.spans, span{off: off, n: from.n, crc: from.crc})
		return dst[:at+int(from.n)]
	}
	dst = src.AppendRange(dst, r)
	e.next.spans = append(e.next.spans, span{off: off, n: int32(len(dst) - at), crc: crc32.Checksum(dst[at:], castagnoli)})
	return dst
}

// readBack fills the slots put left with the previous file's bytes, one read
// per run of ranges that lie back to back in both, and encodes in place
// every range whose bytes do not match the CRC-32C recorded for them.
func (e *encoder) readBack(prev *Index) {
	f, err := os.Open(prev.path)
	if err == nil {
		defer f.Close()
	}
	for i := 0; i < len(e.reads); {
		j := i + 1
		for j < len(e.reads) {
			p, q := e.reads[j-1], e.reads[j]
			if q.at != p.at+int(p.from.n) || q.from.off != p.from.off+int(p.from.n) {
				break
			}
			j++
		}
		first, last := e.reads[i], e.reads[j-1]
		got := 0
		if f != nil {
			got, _ = f.ReadAt(e.buf[first.at:last.at+int(last.from.n)], prev.base+int64(first.from.off))
		}
		for _, rd := range e.reads[i:j] {
			n := int(rd.from.n)
			b := e.buf[rd.at : rd.at+n]
			if rd.at+n <= first.at+got && crc32.Checksum(b, castagnoli) == rd.from.crc {
				e.next.reused += n
				continue
			}
			if enc := rd.src.AppendRange(b[:0:n], rd.r); len(enc) != n {
				panic(fmt.Sprintf("ckpt: a clean range of %d bytes encoded to %d", n, len(enc)))
			}
			e.next.spans[rd.span].crc = crc32.Checksum(b, castagnoli)
		}
		i = j
	}
}

// Payload is a decoded payload.
type Payload struct {
	Gen      uint64
	Digest   digest.Sum      // of the state below
	ATG      atg.Fingerprint // of the grammar the state was published under
	Tables   []Table
	DAGState []byte
}

// Table is one decoded table. The rows are cut from slabs (package slab)
// and meant for one owner: the relation they are loaded into.
type Table struct {
	Name string
	Rows []relational.Tuple
}

// DecodeHeader decodes what a payload says about itself — format,
// generation, state digest and grammar fingerprint — and returns the rest of
// the payload.
func DecodeHeader(b []byte) (*Payload, []byte, error) {
	if err := wal.CheckFormat(b); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	ck := &Payload{}
	gen, w := binary.Uvarint(b[1:])
	if w <= 0 {
		return nil, nil, fmt.Errorf("checkpoint: bad generation")
	}
	ck.Gen, b = gen, b[1+w:]
	if len(b) < digest.Size+len(ck.ATG) {
		return nil, nil, fmt.Errorf("checkpoint: bad digest")
	}
	ck.Digest = digest.Decode(b)
	b = b[digest.Size:]
	b = b[copy(ck.ATG[:], b):]
	return ck, b, nil
}

// Decode decodes a whole payload. The DAG state is left encoded, a span of b
// (dag.DecodeState decodes it).
func Decode(b []byte) (*Payload, error) {
	ck, b, err := DecodeHeader(b)
	if err != nil {
		return nil, err
	}
	var w int
	var u uint64
	next := func(what string) (uint64, error) {
		u, w = binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("checkpoint: bad %s", what)
		}
		b = b[w:]
		return u, nil
	}
	nt, err := next("table count")
	if err != nil {
		return nil, err
	}
	var rows relational.Slab
	for i := uint64(0); i < nt; i++ {
		nl, err := next("table name length")
		if err != nil {
			return nil, err
		}
		if nl > uint64(len(b)) {
			return nil, fmt.Errorf("checkpoint: table name exceeds input")
		}
		tb := Table{Name: string(b[:nl])}
		b = b[nl:]
		cnt, err := next("tuple count")
		if err != nil {
			return nil, err
		}
		if cnt > uint64(len(b)) { // a tuple takes a byte at the least
			return nil, fmt.Errorf("checkpoint: table %s: %d tuples exceed input", tb.Name, cnt)
		}
		tb.Rows = make([]relational.Tuple, cnt)
		for j := range tb.Rows {
			t, rest, err := rows.DecodeTuple(b)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: table %s tuple %d: %w", tb.Name, j, err)
			}
			tb.Rows[j], b = t, rest
		}
		ck.Tables = append(ck.Tables, tb)
	}
	dl, err := next("DAG state length")
	if err != nil {
		return nil, err
	}
	if dl > uint64(len(b)) {
		return nil, fmt.Errorf("checkpoint: DAG state exceeds input")
	}
	ck.DAGState = b[:dl]
	b = b[dl:]
	if len(b) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(b))
	}
	return ck, nil
}
