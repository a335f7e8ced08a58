// Package storage defines the pluggable backend boundary for the base
// relations: the choke point every ΔR mutation flows through.
//
// The paper's framework evaluates SPJ queries over an in-memory instance I
// (internal/relational) and that does not change here — publication, the
// view-update translators and the evaluator all keep reading the in-memory
// image via DB(). What the interface pins down is the write side: core's
// update pipeline and transaction rollback never touch a *relational.Database
// mutator directly, they go through a Backend. The in-memory Memory backend
// is the default (and the only state it has is the Database itself); a
// durable deployment layers a write-ahead log above this boundary, and a
// file- or SQL-backed store can implement it outright as long as it keeps
// the in-memory image current for the readers. Future programmable
// view-update strategies (see PAPERS.md: Tran et al.) hook the same ΔR
// stream, which is why Apply takes the whole group rather than being a
// convenience loop over Insert/Delete.
package storage

import (
	"rxview/internal/fault"
	"rxview/internal/relational"
)

// Backend is a store of the base relations. Implementations must keep an
// in-memory relational.Database image current for query evaluation; all
// mutations arrive through Insert/Delete/Apply.
type Backend interface {
	// DB returns the in-memory image the SPJ evaluator and ATG publication
	// read. The image is live: it reflects every mutation applied so far.
	DB() *relational.Database
	// Insert adds one tuple to the named table.
	Insert(table string, t relational.Tuple) error
	// Delete removes the tuple with the same key as t; it reports whether
	// the tuple existed.
	Delete(table string, t relational.Tuple) bool
	// Apply performs a group update ΔR atomically: on error, already
	// applied mutations are rolled back and the error names the failing
	// mutation index.
	Apply(dr []relational.Mutation) error
}

// Memory is the in-memory Backend: the relational.Database itself, behind
// the interface. Zero overhead over direct calls — every method is a direct
// delegation.
type Memory struct {
	db *relational.Database
}

// NewMemory wraps an existing instance.
func NewMemory(db *relational.Database) *Memory { return &Memory{db: db} }

// DB returns the wrapped instance.
func (m *Memory) DB() *relational.Database { return m.db }

// Insert adds one tuple to the named table.
func (m *Memory) Insert(table string, t relational.Tuple) error {
	return m.db.Insert(table, t)
}

// Delete removes the tuple with the same key as t.
func (m *Memory) Delete(table string, t relational.Tuple) bool {
	return m.db.Delete(table, t)
}

// Apply performs a group update ΔR atomically.
func (m *Memory) Apply(dr []relational.Mutation) error {
	// The fault point fires before any mutation lands, so an injected
	// failure is indistinguishable from a refused ΔR: the pipeline aborts
	// the stage cleanly and nothing is half-applied.
	if err := fault.Hit(fault.StorageApply); err != nil {
		return err
	}
	return m.db.Apply(dr)
}

var _ Backend = (*Memory)(nil)
