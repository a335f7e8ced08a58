package relational

import (
	"errors"
	"fmt"
)

// Database is an instance I of a schema R: one relation per table.
type Database struct {
	Schema *Schema
	rels   map[string]*Relation
}

// NewDatabase creates an empty instance of the schema.
func NewDatabase(s *Schema) *Database {
	db := &Database{Schema: s, rels: make(map[string]*Relation)}
	for _, name := range s.TableNames() {
		db.rels[name] = NewRelation(s.Table(name))
	}
	return db
}

// Rel returns the relation for the named table, or nil.
func (db *Database) Rel(name string) *Relation { return db.rels[name] }

// Insert adds a tuple to the named table.
func (db *Database) Insert(table string, t Tuple) error {
	r := db.rels[table]
	if r == nil {
		return fmt.Errorf("relational: no table %s", table)
	}
	return r.Insert(t)
}

// Load fills the named table, which must be empty, with rows and takes
// ownership of them; see Relation.Load.
func (db *Database) Load(table string, rows []Tuple) error {
	r := db.rels[table]
	if r == nil {
		return fmt.Errorf("relational: no table %s", table)
	}
	return r.Load(rows)
}

// Delete removes the tuple with the same key as t from the named table.
func (db *Database) Delete(table string, t Tuple) bool {
	r := db.rels[table]
	if r == nil {
		return false
	}
	return r.DeleteTuple(t)
}

// Swap exchanges the contents of two instances of the same schema, keeping the
// identity of both: the checkpoint-restore path loads and verifies a fresh
// instance, swaps it into the Database that callers hold, and swaps back if
// the restore is refused after all.
func (db *Database) Swap(other *Database) {
	db.rels, other.rels = other.rels, db.rels
}

// Clone deep-copies the database; used by what-if analyses and tests.
func (db *Database) Clone() *Database {
	out := &Database{Schema: db.Schema, rels: make(map[string]*Relation, len(db.rels))}
	for name, r := range db.rels {
		out.rels[name] = r.Clone()
	}
	return out
}

// TotalRows returns the number of tuples across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Mutation is a single base-table change; a group update ΔR is a []Mutation.
type Mutation struct {
	Table  string
	Insert bool // true = insert, false = delete
	Tuple  Tuple
}

// String renders the mutation for logs and reports.
func (m Mutation) String() string {
	op := "delete"
	if m.Insert {
		op = "insert"
	}
	return fmt.Sprintf("%s %s %s", op, m.Table, m.Tuple)
}

// ErrNoSuchTuple marks a deletion whose target tuple is absent.
var ErrNoSuchTuple = errors.New("relational: no such tuple")

// Apply performs a group update ΔR. It fails atomically: on error, already
// applied mutations are rolled back. The error names the index of the
// failing mutation within dr (and wraps the underlying cause), so a caller
// replaying a persisted ΔR — the write-ahead-log recovery path — can
// attribute a divergence to the exact record position.
func (db *Database) Apply(dr []Mutation) error {
	done := 0
	var err error
	for i, m := range dr {
		if m.Insert {
			err = db.Insert(m.Table, m.Tuple)
		} else if !db.Delete(m.Table, m.Tuple) {
			err = fmt.Errorf("delete %s %s: %w", m.Table, m.Tuple, ErrNoSuchTuple)
		}
		if err != nil {
			err = fmt.Errorf("relational: apply ΔR[%d] (%s): %w", i, m, err)
			done = i
			break
		}
	}
	if err == nil {
		return nil
	}
	for i := done - 1; i >= 0; i-- {
		m := dr[i]
		if m.Insert {
			db.Delete(m.Table, m.Tuple)
		} else if e := db.Insert(m.Table, m.Tuple); e != nil {
			return fmt.Errorf("relational: rollback failed after %w: %w", err, e)
		}
	}
	return err
}
