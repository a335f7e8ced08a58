package xtree

import (
	"fmt"
	"strings"
)

// Constructors and accessors only tests call. They are exported so the
// external test package (parse_test.go) can use them too.

// NewElem builds an element node with children.
func NewElem(typ string, children ...*Node) *Node {
	return &Node{Type: typ, Children: children}
}

// NewText builds a PCDATA element <typ>text</typ>.
func NewText(typ, text string) *Node {
	return &Node{Type: typ, Text: text}
}

// Size returns the number of element nodes in the subtree (including n).
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Depth returns the height of the subtree (a leaf has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Find returns the first node in document order satisfying pred, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	if n == nil {
		return nil
	}
	if pred(n) {
		return n
	}
	for _, c := range n.Children {
		if got := c.Find(pred); got != nil {
			return got
		}
	}
	return nil
}

// Walk visits every node in document order; it stops if fn returns false.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if n == nil {
		return true
	}
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// StringValue returns the concatenated PCDATA content of the subtree, the
// XPath string-value used by value filters p = "s".
func (n *Node) StringValue() string {
	var b strings.Builder
	n.Walk(func(m *Node) bool {
		b.WriteString(m.Text)
		return true
	})
	return b.String()
}

// XML returns the serialized subtree as a string.
func (n *Node) XML() string {
	var b strings.Builder
	if err := n.WriteXML(&b); err != nil {
		return fmt.Sprintf("<!-- serialize error: %v -->", err)
	}
	return b.String()
}

// Sample is a two-course registrar fragment.
func Sample() *Node {
	return NewElem("db",
		NewElem("course",
			NewText("cno", "CS650"),
			NewText("title", "Advanced Topics"),
			NewElem("prereq",
				NewElem("course",
					NewText("cno", "CS320"),
					NewText("title", "Databases"),
				),
			),
		),
	)
}
