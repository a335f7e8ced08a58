package relational

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Kind
	// Domain enumerates the column's finite domain, if any. A nil Domain
	// means the domain is (conceptually) infinite — the insertion
	// translator may then always pick a fresh value for an unconstrained
	// variable (case (b) in Section 4.3 of the paper). Bool columns have
	// an implicit {false,true} domain even when Domain is nil.
	Domain []Value
}

// FiniteDomain returns the column's finite domain and true, or nil and false
// if the domain is infinite.
func (c Column) FiniteDomain() ([]Value, bool) {
	if len(c.Domain) > 0 {
		return c.Domain, true
	}
	if c.Type == KindBool {
		return []Value{Bool(false), Bool(true)}, true
	}
	return nil, false
}

// TableSchema describes a base relation: its columns and primary key.
type TableSchema struct {
	Name    string
	Columns []Column
	Key     []int // indices into Columns; non-empty
	byName  map[string]int
}

// NewTableSchema builds a table schema. The key columns are given by name and
// must exist. Every table has a primary key (the paper's key-preservation
// condition is stated over primary keys).
func NewTableSchema(name string, cols []Column, keyCols ...string) (*TableSchema, error) {
	if name == "" {
		return nil, fmt.Errorf("relational: table name must be non-empty")
	}
	if len(keyCols) == 0 {
		return nil, fmt.Errorf("relational: table %s: primary key required", name)
	}
	ts := &TableSchema{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relational: table %s: column %d has empty name", name, i)
		}
		if _, dup := ts.byName[c.Name]; dup {
			return nil, fmt.Errorf("relational: table %s: duplicate column %s", name, c.Name)
		}
		ts.byName[c.Name] = i
	}
	for _, k := range keyCols {
		i, ok := ts.byName[k]
		if !ok {
			return nil, fmt.Errorf("relational: table %s: key column %s not found", name, k)
		}
		ts.Key = append(ts.Key, i)
	}
	return ts, nil
}

// IsKeyCol reports whether column index i belongs to the primary key.
func (ts *TableSchema) IsKeyCol(i int) bool {
	for _, k := range ts.Key {
		if k == i {
			return true
		}
	}
	return false
}

// String renders the schema in the paper's style: name(col1, col2, ...),
// with key columns marked by a trailing '*'.
func (ts *TableSchema) String() string {
	var b strings.Builder
	b.WriteString(ts.Name)
	b.WriteByte('(')
	for i, c := range ts.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		if ts.IsKeyCol(i) {
			b.WriteByte('*')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Schema is a collection of table schemas (the relational schema R of the
// paper's mapping σ : R → D).
type Schema struct {
	tables map[string]*TableSchema
}

// NewSchema builds a schema from table schemas.
func NewSchema(tables ...*TableSchema) (*Schema, error) {
	s := &Schema{tables: make(map[string]*TableSchema, len(tables))}
	for _, t := range tables {
		if _, dup := s.tables[t.Name]; dup {
			return nil, fmt.Errorf("relational: duplicate table %s", t.Name)
		}
		s.tables[t.Name] = t
	}
	return s, nil
}

// Table returns the named table schema, or nil.
func (s *Schema) Table(name string) *TableSchema { return s.tables[name] }

// TableNames returns all table names in sorted order.
func (s *Schema) TableNames() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
