// Package atg implements Attribute Translation Grammars (§2.2 of the paper):
// schema-directed mappings σ : R → D that publish a relational database as an
// XML view conforming to a (possibly recursive) DTD. Each element type A has
// a semantic attribute $A; each production's children are generated either by
// an SPJ query over the base relations parameterized by $A (star/alternation
// children) or by projecting $A (sequence children).
//
// Publishing materializes the DAG compression of the view directly (§2.3):
// the Skolem function gen_id of package dag shares every subtree ST(A, $A).
//
// The compiler enforces the key-preservation condition of §4.1 on every rule
// query and derives, for each, the provenance extractors that let the view
// update translators identify the deletable/insertable source tuples
// Sr(Q, t) of any edge.
package atg

import (
	"fmt"

	"rxview/internal/dtd"
	"rxview/internal/relational"
)

// AttrField declares one component of a semantic attribute $A.
type AttrField struct {
	Name string
	Type relational.Kind
}

// Field is shorthand for AttrField construction.
func Field(name string, typ relational.Kind) AttrField {
	return AttrField{Name: name, Type: typ}
}

// ProjItem defines one component of a sequence child's attribute: either a
// component of the parent's attribute or a constant.
type ProjItem struct {
	FromParent int              // index into parent attr; -1 for Const
	Const      relational.Value // used when FromParent < 0
}

// FromParent projects the i-th component of the parent attribute.
func FromParent(i int) ProjItem { return ProjItem{FromParent: i} }

// ConstItem injects a constant.
func ConstItem(v relational.Value) ProjItem { return ProjItem{FromParent: -1, Const: v} }

// Rule generates the Child elements under a Parent element. Exactly one of
// Query/Proj is set: star and alternation children are query rules (one child
// per result row; the row is the child's $B), sequence children are
// projection rules (exactly one child, attribute projected from $A).
type Rule struct {
	Parent, Child string
	Query         *relational.SPJ
	Proj          []ProjItem
}

// ATG is the un-compiled grammar definition. Use Builder to construct one
// and Compile to validate it and derive provenance.
type ATG struct {
	DTD    *dtd.DTD
	Schema *relational.Schema
	// Attrs declares $A per element type. The root has no attribute (its
	// $r is fixed); PCDATA types need at least one field.
	Attrs map[string][]AttrField
	// Rules maps parent type -> child type -> rule.
	Rules map[string]map[string]*Rule
	// TextIndex selects which attr component is a PCDATA type's text;
	// defaults to 0.
	TextIndex map[string]int
}

// Builder assembles an ATG with a fluent API.
type Builder struct {
	a    *ATG
	errs []error
}

// NewBuilder starts an ATG over the given DTD and relational schema.
func NewBuilder(d *dtd.DTD, s *relational.Schema) *Builder {
	return &Builder{a: &ATG{
		DTD:       d,
		Schema:    s,
		Attrs:     make(map[string][]AttrField),
		Rules:     make(map[string]map[string]*Rule),
		TextIndex: make(map[string]int),
	}}
}

// Attr declares the semantic attribute of an element type.
func (b *Builder) Attr(typ string, fields ...AttrField) *Builder {
	if _, dup := b.a.Attrs[typ]; dup {
		b.errs = append(b.errs, fmt.Errorf("atg: attribute of %s declared twice", typ))
	}
	b.a.Attrs[typ] = fields
	return b
}

// QueryRule attaches an SPJ query rule generating child elements under
// parent. The query's parameters are the parent attribute components in
// order; its projection list is the child attribute in order.
func (b *Builder) QueryRule(parent, child string, q *relational.SPJ) *Builder {
	b.addRule(&Rule{Parent: parent, Child: child, Query: q})
	return b
}

// ProjRule attaches a projection rule: the (single) child's attribute is
// assembled from parent attribute components and constants.
func (b *Builder) ProjRule(parent, child string, items ...ProjItem) *Builder {
	b.addRule(&Rule{Parent: parent, Child: child, Proj: items})
	return b
}

// Text selects which attribute component carries a PCDATA type's text.
func (b *Builder) Text(typ string, attrIndex int) *Builder {
	b.a.TextIndex[typ] = attrIndex
	return b
}

func (b *Builder) addRule(r *Rule) {
	m := b.a.Rules[r.Parent]
	if m == nil {
		m = make(map[string]*Rule)
		b.a.Rules[r.Parent] = m
	}
	if _, dup := m[r.Child]; dup {
		b.errs = append(b.errs, fmt.Errorf("atg: rule %s→%s declared twice", r.Parent, r.Child))
	}
	m[r.Child] = r
}

// Build compiles the grammar; see Compile.
func (b *Builder) Build() (*Compiled, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	return Compile(b.a)
}
