package testkit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"rxview/internal/dag"
	"rxview/internal/relational"
)

// CheckPayload holds a checkpoint payload to a reference encoding of the
// state it must hold, built the plain way: the header — the format byte
// (wal.Format), the generation, the digest and the grammar fingerprint,
// given encoded — and the DAG state byte for byte, and each table's name,
// row count and rows, the rows as a set: the encoder writes them in slot
// order, the reference in ascending order of their encoding, so both are
// compared sorted.
func CheckPayload(payload []byte, format byte, gen uint64, digest, fingerprint []byte, db *relational.Database, d *dag.DAG) error {
	head := binary.AppendUvarint([]byte{format}, gen)
	head = append(append(head, digest...), fingerprint...)

	names := db.Schema.TableNames()
	type table struct {
		head []byte // name and row count
		rows []string
	}
	want := make([]table, len(names))
	tablesLen := relational.UvarintLen(uint64(len(names)))
	for i, name := range names {
		rel := db.Rel(name)
		tb := &want[i]
		tb.head = binary.AppendUvarint(nil, uint64(len(name)))
		tb.head = append(tb.head, name...)
		tb.head = binary.AppendUvarint(tb.head, uint64(rel.Len()))
		tablesLen += len(tb.head)
		rel.Scan(func(t relational.Tuple) bool {
			tb.rows = append(tb.rows, string(relational.AppendTuple(nil, t)))
			tablesLen += len(tb.rows[len(tb.rows)-1])
			return true
		})
		slices.Sort(tb.rows)
	}

	state := d.AppendState(nil, nil)
	tail := binary.AppendUvarint(nil, uint64(len(state)))
	tail = append(tail, state...)

	if n := len(head) + tablesLen + len(tail); len(payload) != n {
		return fmt.Errorf("payload of %d bytes, the reference's has %d", len(payload), n)
	}
	if !bytes.HasPrefix(payload, head) {
		return fmt.Errorf("header differs from the reference's")
	}
	if !bytes.HasSuffix(payload, tail) {
		return fmt.Errorf("DAG state differs from the reference's")
	}
	b := payload[len(head) : len(payload)-len(tail)]
	n, w := binary.Uvarint(b)
	if w <= 0 || n != uint64(len(names)) {
		return fmt.Errorf("table count differs from the reference's %d", len(names))
	}
	b = b[w:]
	for _, tb := range want {
		if !bytes.HasPrefix(b, tb.head) {
			return fmt.Errorf("table header %q differs from the reference's", tb.head)
		}
		b = b[len(tb.head):]
		got := make([]string, len(tb.rows))
		for j := range got {
			_, rest, err := relational.DecodeTuple(b)
			if err != nil {
				return fmt.Errorf("table %q row %d: %w", tb.head, j, err)
			}
			got[j], b = string(b[:len(b)-len(rest)]), rest
		}
		slices.Sort(got)
		if !slices.Equal(got, tb.rows) {
			return fmt.Errorf("table %q holds rows %q, the reference's %q", tb.head, got, tb.rows)
		}
	}
	return nil
}
