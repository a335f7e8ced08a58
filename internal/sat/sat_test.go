package sat_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rxview/internal/sat"
	"rxview/internal/testkit"
)

func TestLitBasics(t *testing.T) {
	p, n := sat.Pos(3), sat.Neg(3)
	if p.Var() != 3 || n.Var() != 3 {
		t.Error("Var")
	}
	if p.Negated() || !n.Negated() {
		t.Error("Negated")
	}
	if p.Not() != n || n.Not() != p {
		t.Error("Not")
	}
	assign := []bool{false, false, false, true}
	if !p.Satisfied(assign) || n.Satisfied(assign) {
		t.Error("Satisfied")
	}
	if p.String() != "x3" || n.String() != "¬x3" {
		t.Errorf("String: %s %s", p, n)
	}
}

func TestCNFBuilders(t *testing.T) {
	f := sat.NewCNF()
	a, b, c := f.NewVar(), f.NewVar(), f.NewVar()
	f.AddExactlyOne(sat.Pos(a), sat.Pos(b), sat.Pos(c))
	// 1 at-least-one + 3 pairwise at-most-one clauses
	if len(f.Clauses) != 4 {
		t.Fatalf("clauses = %d", len(f.Clauses))
	}
	if f.NumVars != 3 {
		t.Fatalf("NumVars = %d", f.NumVars)
	}
	if !testkit.Satisfied(f, []bool{true, false, false}) {
		t.Error("one-hot assignment should satisfy")
	}
	if testkit.Satisfied(f, []bool{true, true, false}) {
		t.Error("two-hot assignment should not satisfy")
	}
	if testkit.Satisfied(f, []bool{false, false, false}) {
		t.Error("zero-hot assignment should not satisfy")
	}
	if f.String() == "" || sat.NewCNF().String() != "⊤" {
		t.Error("String")
	}
	if (sat.Clause{}).String() != "⊥" {
		t.Error("empty clause string")
	}
}

func TestCNFAddClauseGrowsVars(t *testing.T) {
	f := sat.NewCNF()
	f.AddClause(sat.Pos(9))
	if f.NumVars != 10 {
		t.Errorf("NumVars = %d", f.NumVars)
	}
}

func TestDPLLSimple(t *testing.T) {
	// (a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c) — satisfiable, forces b, c.
	f := sat.NewCNF()
	a, b, c := f.NewVar(), f.NewVar(), f.NewVar()
	f.AddClause(sat.Pos(a), sat.Pos(b))
	f.AddClause(sat.Neg(a), sat.Pos(b))
	f.AddClause(sat.Neg(b), sat.Pos(c))
	m, ok := sat.DPLL(f)
	if !ok {
		t.Fatal("should be SAT")
	}
	if !testkit.Satisfied(f, m) {
		t.Fatal("model does not satisfy")
	}
	if !m[b] || !m[c] {
		t.Errorf("model = %v, want b,c true", m)
	}
}

func TestDPLLUnsat(t *testing.T) {
	// (a) ∧ (¬a)
	f := sat.NewCNF()
	a := f.NewVar()
	f.AddClause(sat.Pos(a))
	f.AddClause(sat.Neg(a))
	if _, ok := sat.DPLL(f); ok {
		t.Error("should be UNSAT")
	}
	// Empty clause.
	g := sat.NewCNF()
	g.AddClause()
	if _, ok := sat.DPLL(g); ok {
		t.Error("empty clause should be UNSAT")
	}
	// Pigeonhole PHP(2,1): two pigeons one hole.
	h := sat.NewCNF()
	p1, p2 := h.NewVar(), h.NewVar()
	h.AddClause(sat.Pos(p1))
	h.AddClause(sat.Pos(p2))
	h.AddClause(sat.Neg(p1), sat.Neg(p2))
	if _, ok := sat.DPLL(h); ok {
		t.Error("PHP should be UNSAT")
	}
}

func TestDPLLEmptyFormula(t *testing.T) {
	f := sat.NewCNF()
	f.NumVars = 2
	if _, ok := sat.DPLL(f); !ok {
		t.Error("empty formula should be SAT")
	}
}

// randomCNF returns nClauses random clauses of width 1–3 over nVars variables.
func randomCNF(rng *rand.Rand, nVars, nClauses int) *sat.CNF {
	f := &sat.CNF{NumVars: nVars}
	for i := 0; i < nClauses; i++ {
		c := make(sat.Clause, 1+rng.Intn(3))
		for j := range c {
			if v := rng.Intn(nVars); rng.Intn(2) == 0 {
				c[j] = sat.Pos(v)
			} else {
				c[j] = sat.Neg(v)
			}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// bruteForceSAT enumerates every assignment of f's variables.
func bruteForceSAT(f *sat.CNF) bool {
	assign := make([]bool, f.NumVars)
	for bits := 0; bits < 1<<f.NumVars; bits++ {
		for v := range assign {
			assign[v] = bits>>v&1 == 1
		}
		if testkit.Satisfied(f, assign) {
			return true
		}
	}
	return false
}

// Property: DPLL says SAT exactly when some assignment is a model, and the
// model it returns is one. Enumeration is the independent answer.
func TestDPLLMatchesBruteForce(t *testing.T) {
	seen := map[bool]int{}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomCNF(rng, 1+rng.Intn(10), rng.Intn(40))
		m, ok := sat.DPLL(f)
		want := bruteForceSAT(f)
		seen[want]++
		if ok != want || ok && !testkit.Satisfied(f, m) {
			t.Logf("seed %d: %s: DPLL (%v, %v), enumeration %v", seed, f, m, ok, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("random formulas were all one way: %v", seen)
	}
}

// Past enumeration's reach, a hidden model stands in for the oracle: random
// 3-CNFs over 40 variables near the hard ratio keep only clauses a planted
// assignment satisfies, so each is SAT, and DPLL must say so with a model of
// its own that satisfies every clause.
func TestDPLLSolvesPlantedFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nVars, nClauses = 40, 170
	for i := 0; i < 30; i++ {
		planted := make([]bool, nVars)
		for v := range planted {
			planted[v] = rng.Intn(2) == 0
		}
		f := &sat.CNF{NumVars: nVars}
		for len(f.Clauses) < nClauses {
			c := make(sat.Clause, 3)
			for j := range c {
				if v := rng.Intn(nVars); rng.Intn(2) == 0 {
					c[j] = sat.Pos(v)
				} else {
					c[j] = sat.Neg(v)
				}
			}
			if testkit.Satisfied(&sat.CNF{Clauses: []sat.Clause{c}}, planted) {
				f.Clauses = append(f.Clauses, c)
			}
		}
		m, ok := sat.DPLL(f)
		if !ok {
			t.Fatalf("formula %d: DPLL says UNSAT, but %v is a model", i, planted)
		}
		if len(m) != nVars || !testkit.Satisfied(f, m) {
			t.Fatalf("formula %d: DPLL returned non-model %v", i, m)
		}
	}
}

func TestTautology(t *testing.T) {
	// x ∨ ¬x is a tautology.
	if !testkit.Tautology(1, [][]sat.Lit{{sat.Pos(0)}, {sat.Neg(0)}}) {
		t.Error("x ∨ ¬x should be a tautology")
	}
	// x ∨ y is not.
	if testkit.Tautology(2, [][]sat.Lit{{sat.Pos(0)}, {sat.Pos(1)}}) {
		t.Error("x ∨ y should not be a tautology")
	}
	// (x∧y) ∨ (¬x) ∨ (¬y) is a tautology.
	if !testkit.Tautology(2, [][]sat.Lit{{sat.Pos(0), sat.Pos(1)}, {sat.Neg(0)}, {sat.Neg(1)}}) {
		t.Error("(x∧y) ∨ ¬x ∨ ¬y should be a tautology")
	}
	// (x∧y) ∨ (¬x∧¬y) is not (x=T,y=F escapes).
	if testkit.Tautology(2, [][]sat.Lit{{sat.Pos(0), sat.Pos(1)}, {sat.Neg(0), sat.Neg(1)}}) {
		t.Error("xor-ish DNF should not be a tautology")
	}
}
