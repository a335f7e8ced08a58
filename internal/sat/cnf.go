// Package sat implements the propositional satisfiability machinery the
// paper's view-insertion translator needs (Section 4.3): a CNF
// representation and one complete solver, DPLL. The paper solves with
// Selman & Kautz's incomplete Walksat [30]; a complete solver answers the
// same question without a give-up case.
package sat

import (
	"fmt"
	"strings"
)

// Lit is a literal: variable index v (0-based) encoded as v<<1, with the low
// bit set for negation.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1 | 1) }

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Negated reports whether the literal is negative.
func (l Lit) Negated() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Satisfied reports whether the literal holds under the assignment.
func (l Lit) Satisfied(assign []bool) bool {
	return assign[l.Var()] != l.Negated()
}

func (l Lit) String() string {
	if l.Negated() {
		return fmt.Sprintf("¬x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Clause is a disjunction of literals.
type Clause []Lit

func (c Clause) String() string {
	if len(c) == 0 {
		return "⊥"
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// CNF is a conjunction of clauses over NumVars variables.
type CNF struct {
	NumVars int
	Clauses []Clause
}

// NewCNF returns an empty formula.
func NewCNF() *CNF { return &CNF{} }

// NewVar allocates a fresh variable and returns its index.
func (f *CNF) NewVar() int {
	v := f.NumVars
	f.NumVars++
	return v
}

// AddClause appends a clause. Adding an empty clause makes the formula
// trivially unsatisfiable.
func (f *CNF) AddClause(lits ...Lit) {
	c := make(Clause, len(lits))
	copy(c, lits)
	f.Clauses = append(f.Clauses, c)
	for _, l := range lits {
		if l.Var() >= f.NumVars {
			f.NumVars = l.Var() + 1
		}
	}
}

// AddAtLeastOne adds (l1 ∨ ... ∨ ln).
func (f *CNF) AddAtLeastOne(lits ...Lit) { f.AddClause(lits...) }

// AddAtMostOne adds the pairwise encoding (¬li ∨ ¬lj) for i<j — the paper's
// "add conjuncts (p̄ ∨ p̄′)" step ensuring a variable takes one domain value.
func (f *CNF) AddAtMostOne(lits ...Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			f.AddClause(lits[i].Not(), lits[j].Not())
		}
	}
}

// AddExactlyOne combines AddAtLeastOne and AddAtMostOne.
func (f *CNF) AddExactlyOne(lits ...Lit) {
	f.AddAtLeastOne(lits...)
	f.AddAtMostOne(lits...)
}

func (f *CNF) String() string {
	if len(f.Clauses) == 0 {
		return "⊤"
	}
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∧ ")
}
