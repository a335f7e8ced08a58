// Package dtd models the Document Type Definitions that direct XML
// publishing in the paper (§2.2): a DTD is a triple (E, P, r) where each
// element type has one production of the normalized forms
//
//	α ::= PCDATA | ε | B1,...,Bn | B1+...+Bn | B*
//
// The package parses/serializes the standard <!ELEMENT ...> syntax
// restricted to these forms and implements the schema-level update
// validation of §2.4.
package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// ContentKind classifies a production's content model.
type ContentKind uint8

// Content models of the normalized DTD form.
const (
	PCData ContentKind = iota // #PCDATA
	Empty                     // EMPTY (ε)
	Seq                       // B1, ..., Bn
	Alt                       // B1 + ... + Bn  (written B1 | ... | Bn)
	Star                      // B*
)

func (k ContentKind) String() string {
	switch k {
	case PCData:
		return "PCDATA"
	case Empty:
		return "EMPTY"
	case Seq:
		return "sequence"
	case Alt:
		return "alternation"
	case Star:
		return "star"
	default:
		return fmt.Sprintf("content(%d)", uint8(k))
	}
}

// Production is the content model of one element type.
type Production struct {
	Kind     ContentKind
	Children []string // child element types; 1 for Star, ≥1 for Seq/Alt, 0 otherwise
}

// String renders the production body in DTD syntax.
func (p Production) String() string {
	switch p.Kind {
	case PCData:
		return "(#PCDATA)"
	case Empty:
		return "EMPTY"
	case Star:
		return "(" + p.Children[0] + ")*"
	case Alt:
		return "(" + strings.Join(p.Children, " | ") + ")"
	default:
		return "(" + strings.Join(p.Children, ", ") + ")"
	}
}

// DTD is a document type definition (E, P, r).
type DTD struct {
	Root  string
	Elems map[string]Production
}

// New builds a DTD with the given root and productions and validates it.
func New(root string, elems map[string]Production) (*DTD, error) {
	d := &DTD{Root: root, Elems: elems}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Validate checks structural sanity: the root is defined, every referenced
// child type is defined, and production shapes match their kinds.
func (d *DTD) Validate() error {
	if d.Root == "" {
		return fmt.Errorf("dtd: empty root type")
	}
	if _, ok := d.Elems[d.Root]; !ok {
		return fmt.Errorf("dtd: root type %s not defined", d.Root)
	}
	for name, p := range d.Elems {
		switch p.Kind {
		case PCData, Empty:
			if len(p.Children) != 0 {
				return fmt.Errorf("dtd: %s: %v production must have no children", name, p.Kind)
			}
		case Star:
			if len(p.Children) != 1 {
				return fmt.Errorf("dtd: %s: star production must have exactly one child type", name)
			}
		case Seq, Alt:
			if len(p.Children) == 0 {
				return fmt.Errorf("dtd: %s: %v production must have children", name, p.Kind)
			}
		default:
			return fmt.Errorf("dtd: %s: unknown content kind %d", name, p.Kind)
		}
		for _, c := range p.Children {
			if _, ok := d.Elems[c]; !ok {
				return fmt.Errorf("dtd: %s references undefined type %s", name, c)
			}
		}
	}
	return nil
}

// Types returns all element type names in sorted order.
func (d *DTD) Types() []string {
	out := make([]string, 0, len(d.Elems))
	for n := range d.Elems {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ChildTypes returns the child element types of a type (empty for PCDATA and
// EMPTY productions).
func (d *DTD) ChildTypes(name string) []string {
	return d.Elems[name].Children
}

// String serializes the DTD in <!ELEMENT ...> syntax, root first, remaining
// types sorted.
func (d *DTD) String() string {
	var b strings.Builder
	write := func(name string) {
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, d.Elems[name])
	}
	write(d.Root)
	for _, t := range d.Types() {
		if t != d.Root {
			write(t)
		}
	}
	return b.String()
}
