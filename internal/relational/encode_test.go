package relational

import (
	"errors"
	"strings"
	"testing"
)

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []Value{
		Null(),
		Int(0), Int(42), Int(-7), Int(1 << 62),
		Bool(true), Bool(false),
		Str(""), Str("hello"), Str(strings.Repeat("x", 300)), Str("with \x00 byte"),
		Var(3),
	}
	var buf []byte
	for _, v := range vals {
		buf = AppendValue(buf, v)
	}
	rest := buf
	for i, want := range vals {
		var got Value
		var err error
		got, rest, err = DecodeValue(rest)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("value %d: got %v want %v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decode", len(rest))
	}
}

func TestValueCodecMatchesKeyEncoding(t *testing.T) {
	// The decodable format must stay byte-identical to the injective map-key
	// encoding: persisted tuples must hash to the same Skolem keys on reload.
	tup := Tuple{Int(5), Str("cs"), Bool(true), Null()}
	if got, want := string(AppendTuple(nil, tup)[1:]), tup.Encode(); got != want {
		t.Fatalf("wire format diverged from Tuple.Encode:\n got %q\nwant %q", got, want)
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	for _, tup := range []Tuple{
		nil,
		{},
		{Int(1)},
		{Str("CS650"), Str("Advanced"), Null(), Bool(false), Int(-1)},
		make(Tuple, 200), // a two-byte count prefix
	} {
		buf := AppendTuple([]byte{0xAA}, tup) // leading noise: decode from offset
		if got := TupleLen(tup); got != len(buf)-1 {
			t.Fatalf("%v: TupleLen = %d, AppendTuple wrote %d bytes", tup, got, len(buf)-1)
		}
		got, rest, err := DecodeTuple(buf[1:])
		if err != nil {
			t.Fatalf("%v: %v", tup, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: trailing bytes", tup)
		}
		if len(tup) == 0 {
			if got != nil {
				t.Fatalf("%v: want nil tuple, got %v", tup, got)
			}
			continue
		}
		if !got.Equal(tup) {
			t.Fatalf("got %v want %v", got, tup)
		}
	}
}

func TestMutationCodecRoundTrip(t *testing.T) {
	muts := []Mutation{
		{Table: "course", Insert: true, Tuple: Tuple{Str("CS650"), Str("Advanced")}},
		{Table: "prereq", Insert: false, Tuple: Tuple{Str("CS650"), Str("CS550")}},
		{Table: "t", Insert: false, Tuple: nil},
	}
	var buf []byte
	for _, m := range muts {
		buf = AppendMutation(buf, m)
	}
	rest := buf
	for i, want := range muts {
		var got Mutation
		var err error
		got, rest, err = DecodeMutation(rest)
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if got.Table != want.Table || got.Insert != want.Insert || !got.Tuple.Equal(want.Tuple) {
			t.Fatalf("mutation %d: got %v want %v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendMutation(nil, Mutation{Table: "course", Insert: true, Tuple: Tuple{Str("CS650"), Int(3)}})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeMutation(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
}

func TestApplyErrorAttribution(t *testing.T) {
	s := MustSchema(MustTableSchema("t", []Column{{Name: "k", Type: KindInt}}, "k"))
	db := NewDatabase(s)
	if err := db.Insert("t", Tuple{Int(1)}); err != nil {
		t.Fatal(err)
	}
	dr := []Mutation{
		{Table: "t", Insert: true, Tuple: Tuple{Int(2)}},
		{Table: "t", Insert: false, Tuple: Tuple{Int(99)}}, // absent: fails
	}
	err := db.Apply(dr)
	if err == nil {
		t.Fatal("Apply succeeded on a deletion of an absent tuple")
	}
	if !strings.Contains(err.Error(), "ΔR[1]") {
		t.Fatalf("error does not name the failing index: %v", err)
	}
	if !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("error does not wrap ErrNoSuchTuple: %v", err)
	}
	// Atomicity: the successful first insert must have been rolled back.
	if db.Rel("t").Len() != 1 {
		t.Fatalf("failed Apply left %d rows, want 1", db.Rel("t").Len())
	}
}
