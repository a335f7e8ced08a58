package storage

import (
	"errors"
	"strings"
	"testing"

	"rxview/internal/relational"
)

func newDB(t *testing.T) *relational.Database {
	t.Helper()
	s := relational.MustSchema(relational.MustTableSchema("t",
		[]relational.Column{{Name: "k", Type: relational.KindInt}, {Name: "v", Type: relational.KindString}}, "k"))
	return relational.NewDatabase(s)
}

func TestMemoryBackend(t *testing.T) {
	db := newDB(t)
	var b Backend = NewMemory(db)
	if b.DB() != db {
		t.Fatal("DB() must return the wrapped instance")
	}
	if err := b.Insert("t", relational.Tuple{relational.Int(1), relational.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply([]relational.Mutation{
		{Table: "t", Insert: true, Tuple: relational.Tuple{relational.Int(2), relational.Str("b")}},
		{Table: "t", Insert: false, Tuple: relational.Tuple{relational.Int(1), relational.Str("a")}},
	}); err != nil {
		t.Fatal(err)
	}
	if db.Rel("t").Len() != 1 {
		t.Fatalf("image holds %d tuples after the group update, want 1", db.Rel("t").Len())
	}
	if !b.Delete("t", relational.Tuple{relational.Int(2), relational.Str("b")}) {
		t.Fatal("delete of present tuple failed")
	}
	if db.Rel("t").Len() != 0 {
		t.Fatal("image must reflect the delete")
	}

	// Apply failure attribution passes through the boundary.
	err := b.Apply([]relational.Mutation{{Table: "t", Insert: false, Tuple: relational.Tuple{relational.Int(9), relational.Str("x")}}})
	if err == nil || !strings.Contains(err.Error(), "ΔR[0]") || !errors.Is(err, relational.ErrNoSuchTuple) {
		t.Fatalf("apply error lacks attribution: %v", err)
	}
}
