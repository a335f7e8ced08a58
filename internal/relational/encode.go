package relational

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"rxview/internal/slab"
)

// Binary codec for values and tuples. The per-value wire format is exactly
// the injective encoding Tuple.Encode has always used as a map key (kind
// byte; strings length-prefixed, numeric payloads 8-byte big-endian), made
// decodable: AppendValue/DecodeValue round-trip a Value, AppendTuple/
// DecodeTuple a whole row. The write-ahead log and checkpoint files persist
// mutations and base tables through these helpers, so the on-disk key of a
// tuple is byte-identical to its in-memory Skolem/index key.

// AppendValue appends the self-delimiting binary encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte { return v.appendEncoded(dst) }

// decodeValue is DecodeValue with the string bytes copied into s's arena, if
// there is an s. Either way the value never aliases b.
func decodeValue(b []byte, s *Slab) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("relational: decode value: empty input")
	}
	k := Kind(b[0])
	b = b[1:]
	switch k {
	case KindNull:
		return Value{}, b, nil
	case KindString:
		if len(b) < 4 {
			return Value{}, nil, fmt.Errorf("relational: decode string value: truncated length")
		}
		n := int(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
		b = b[4:]
		if n < 0 || len(b) < n {
			return Value{}, nil, fmt.Errorf("relational: decode string value: length %d exceeds input", n)
		}
		if s != nil {
			return Str(s.strs.Add(b[:n])), b[n:], nil
		}
		return Str(string(b[:n])), b[n:], nil
	case KindInt, KindBool, KindVar:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("relational: decode %v value: truncated payload", k)
		}
		u := binary.BigEndian.Uint64(b)
		return Value{K: k, I: int64(u)}, b[8:], nil
	default:
		return Value{}, nil, fmt.Errorf("relational: decode value: unknown kind %d", uint8(k))
	}
}

// AppendTuple appends a length-prefixed encoding of t to dst.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = v.appendEncoded(dst)
	}
	return dst
}

// TupleLen returns the number of bytes AppendTuple writes for t, so a caller
// encoding many tuples can size its buffer before encoding any.
func TupleLen(t Tuple) int {
	n := UvarintLen(uint64(len(t)))
	for _, v := range t {
		n++ // the kind byte
		switch v.K {
		case KindString:
			n += 4 + len(v.S)
		case KindNull:
		default:
			n += 8
		}
	}
	return n
}

// UvarintLen is the number of bytes binary.AppendUvarint writes for x: what
// every length measure over these encodings counts a varint as.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeTuple decodes one tuple from the front of b, returning the tuple and
// the remaining bytes. A zero-length tuple decodes as nil, matching the nil
// attribute tuples of root nodes.
func DecodeTuple(b []byte) (Tuple, []byte, error) { return decodeTuple(b, nil) }

// Slab decodes many tuples into few allocations: the values of a tuple are a
// row of a chunked slab, its strings live in a chunked arena (package slab
// has the ownership rules). It is for a caller that decodes a whole table and
// hands the rows to one owner: a checkpoint restore.
type Slab struct {
	vals slab.Of[Value]
	strs slab.Strings
}

// DecodeTuple is the package's DecodeTuple, allocating from the slab.
func (s *Slab) DecodeTuple(b []byte) (Tuple, []byte, error) { return decodeTuple(b, s) }

// DecodeAppend decodes one tuple from the front of b and appends its values
// to dst, their strings cut from the slab's arena: for a caller that keeps
// many tuples in one flat array instead of a row each.
func (s *Slab) DecodeAppend(dst []Value, b []byte) ([]Value, []byte, error) {
	n, b, err := decodeTupleLen(b)
	if err != nil {
		return dst, nil, err
	}
	k := len(dst)
	dst = slices.Grow(dst, n)[:k+n]
	rest, err := decodeValues(dst[k:], b, s)
	return dst, rest, err
}

// SkipTuple measures the tuple at the front of b without decoding it: its
// number of values and the bytes after it.
func SkipTuple(b []byte) (int, []byte, error) {
	n, b, err := decodeTupleLen(b)
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i < n; i++ {
		if len(b) == 0 {
			return 0, nil, fmt.Errorf("relational: skip tuple: truncated")
		}
		k := Kind(b[0])
		b = b[1:]
		switch {
		case k == KindNull:
		case k == KindString && len(b) >= 4:
			l := int(binary.BigEndian.Uint32(b))
			if l > len(b)-4 {
				return 0, nil, fmt.Errorf("relational: skip tuple: string exceeds input")
			}
			b = b[4+l:]
		case (k == KindInt || k == KindBool || k == KindVar) && len(b) >= 8:
			b = b[8:]
		default:
			return 0, nil, fmt.Errorf("relational: skip tuple: bad value")
		}
	}
	return n, b, nil
}

// decodeTuple decodes into s, or into an allocation per tuple when s is nil.
func decodeTuple(b []byte, s *Slab) (Tuple, []byte, error) {
	n, b, err := decodeTupleLen(b)
	if err != nil || n == 0 {
		return nil, b, err
	}
	var out Tuple
	if s != nil {
		out = s.vals.Make(n)
	} else {
		out = make(Tuple, n)
	}
	b, err = decodeValues(out, b, s)
	if err != nil {
		return nil, nil, err
	}
	return out, b, nil
}

// decodeTupleLen decodes a tuple's length prefix.
func decodeTupleLen(b []byte) (int, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("relational: decode tuple: bad length prefix")
	}
	b = b[w:]
	if n > uint64(len(b)) { // each value takes ≥ 1 byte
		return 0, nil, fmt.Errorf("relational: decode tuple: %d values exceed input", n)
	}
	return int(n), b, nil
}

// decodeValues fills out with the values at the front of b.
func decodeValues(out []Value, b []byte, s *Slab) ([]byte, error) {
	for i := range out {
		v, rest, err := decodeValue(b, s)
		if err != nil {
			return nil, fmt.Errorf("relational: decode tuple value %d: %w", i, err)
		}
		out[i] = v
		b = rest
	}
	return b, nil
}

// AppendMutation appends a binary encoding of one ΔR mutation to dst.
func AppendMutation(dst []byte, m Mutation) []byte {
	if m.Insert {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Table)))
	dst = append(dst, m.Table...)
	return AppendTuple(dst, m.Tuple)
}

// DecodeMutation decodes one mutation from the front of b.
func DecodeMutation(b []byte) (Mutation, []byte, error) {
	var m Mutation
	if len(b) == 0 {
		return m, nil, fmt.Errorf("relational: decode mutation: empty input")
	}
	m.Insert = b[0] != 0
	b = b[1:]
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return m, nil, fmt.Errorf("relational: decode mutation: bad table name")
	}
	b = b[w:]
	m.Table = string(b[:n])
	b = b[n:]
	t, rest, err := DecodeTuple(b)
	if err != nil {
		return m, nil, fmt.Errorf("relational: decode mutation tuple: %w", err)
	}
	m.Tuple = t
	return m, rest, nil
}
