// Package testkit holds the helpers that several packages' tests share and
// no production path reaches: the panicking constructors, DAG and formula
// oracles, the checkpoint payload's reference, and an XML reader for
// round-trip tests. Only test files may
// import it (internalboundary's TestSupport list), so nothing here can leak
// into a serving binary.
//
// It imports dag, sat and xtree, so those packages' own tests, and the
// tests of relational, cow and slab below dag, reach it only from an
// external test package.
package testkit

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/sat"
	"rxview/internal/xtree"
)

// Must returns v, and panics if err is not nil: a constructor call whose
// failure would be a broken fixture, not a test result.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Insert inserts the row vals into r, and panics if r refuses it.
func Insert(r *relational.Relation, vals ...relational.Value) {
	if err := r.Insert(relational.Tuple(vals)); err != nil {
		panic(err)
	}
}

// CheckAcyclic verifies the structure is a DAG (the h1 < h2 style
// constraint of the paper's dataset guarantees this by construction;
// publishing enforces it because gen_id memoization cannot create back edges
// to in-progress nodes only in acyclic inputs). Returns an error naming a
// cycle member.
func CheckAcyclic(d dag.Reader) error {
	state := make([]int8, d.Cap()) // 0 unseen, 1 in-progress, 2 done
	var visit func(id dag.NodeID) error
	visit = func(id dag.NodeID) error {
		switch state[id] {
		case 1:
			return fmt.Errorf("dag: cycle through node %d (%s)", id, d.Type(id))
		case 2:
			return nil
		}
		state[id] = 1
		for _, c := range d.Children(id) {
			if err := visit(c); err != nil {
				return err
			}
		}
		state[id] = 2
		return nil
	}
	for _, id := range d.Nodes() {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// Reachable returns a Cap()-sized bitmap marking nodes reachable from the
// root (including it). It works on any Reader — the live DAG or a sealed
// Version.
func Reachable(d dag.Reader) []bool {
	seen := make([]bool, d.Cap())
	root := d.Root()
	if !d.Alive(root) {
		return seen
	}
	stack := []dag.NodeID{root}
	seen[root] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range d.Children(u) {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// CheckRooted verifies the precondition of every XPath evaluation
// (xpath.Evaluator): the root reaches every live node — no live node but the
// root is left without a live parent. Every state an evaluation can start on
// holds it: committed, sealed, replayed and decoded states, and the live view
// between the stages of a group, whether a stage applied or was rewound. No
// route walks for reachability, so a state that breaks it gets answers that
// need not agree. Returns an error naming the first node it does not reach.
func CheckRooted(d dag.Reader) error {
	seen := Reachable(d)
	for _, id := range d.Nodes() {
		if !seen[id] {
			return fmt.Errorf("dag: live node %d (%s%s) is not reachable from the root", id, d.Type(id), d.Attr(id))
		}
	}
	return nil
}

// GarbageCollect removes every node unreachable from the root, together with
// its edges, and returns the removed node ids: the background step of §2.3
// that clears gen_B entries "no longer linked to any node", done in one pass
// over the whole DAG.
func GarbageCollect(d *dag.DAG) []dag.NodeID {
	seen := Reachable(d)
	var removed []dag.NodeID
	for _, id := range d.Nodes() {
		if !seen[id] {
			removed = append(removed, id)
		}
	}
	for _, id := range removed {
		d.RemoveNode(id)
	}
	return removed
}

// Satisfied reports whether every clause of f holds under the assignment:
// some literal of each is satisfied.
func Satisfied(f *sat.CNF, assign []bool) bool {
	for _, c := range f.Clauses {
		if !slices.ContainsFunc(c, func(l sat.Lit) bool { return l.Satisfied(assign) }) {
			return false
		}
	}
	return true
}

// Tautology reports whether the DNF formula ⋁ cubes (each cube a conjunction
// of literals) is a tautology, by checking that its negation (a CNF) is
// unsatisfiable: the oracle of Theorem 2's non-tautology reduction.
func Tautology(numVars int, cubes [][]sat.Lit) bool {
	f := &sat.CNF{NumVars: numVars}
	for _, cube := range cubes {
		neg := make(sat.Clause, len(cube))
		for i, l := range cube {
			neg[i] = l.Not()
		}
		f.Clauses = append(f.Clauses, neg)
	}
	_, ok := sat.DPLL(f)
	return !ok
}

// ParseXML reads an XML document into a tree using the standard decoder.
// Element content is either nested elements or text (the views this system
// publishes never mix the two); attributes are not part of the paper's data
// model and are rejected.
func ParseXML(doc string) (*xtree.Node, error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	var root *xtree.Node
	var stack []*xtree.Node
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xtree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(t.Attr) > 0 {
				return nil, fmt.Errorf("xtree: element %s has attributes; the view data model has none", t.Name.Local)
			}
			n := &xtree.Node{Type: t.Name.Local}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xtree: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xtree: unbalanced end element %s", t.Name.Local)
			}
			n := stack[len(stack)-1]
			if n.Text != "" && len(n.Children) > 0 {
				return nil, fmt.Errorf("xtree: element %s mixes text and children", n.Type)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xtree: text outside the root element")
			}
			stack[len(stack)-1].Text += text
		case xml.Comment, xml.ProcInst, xml.Directive:
			// ignored
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xtree: unterminated element %s", stack[len(stack)-1].Type)
	}
	if root == nil {
		return nil, fmt.Errorf("xtree: empty document")
	}
	return root, nil
}

// EqualTrees reports deep structural equality (type, text, ordered
// children).
func EqualTrees(n, m *xtree.Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Type != m.Type || n.Text != m.Text || len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !EqualTrees(n.Children[i], m.Children[i]) {
			return false
		}
	}
	return true
}
