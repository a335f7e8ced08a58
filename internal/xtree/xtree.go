// Package xtree models materialized XML trees: the uncompressed view T =
// σ(I) of the paper. The system keeps views as DAGs (package dag); trees are
// produced on demand for serialization, for examples, and as the oracle in
// tests (tree semantics define correctness of the DAG algorithms).
package xtree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Node is one element of an XML tree.
type Node struct {
	Type     string
	Text     string // PCDATA content; meaningful only for text elements
	Children []*Node
}

// WriteXML serializes the subtree as indented XML.
func (n *Node) WriteXML(w io.Writer) error {
	return n.write(w, 0)
}

func (n *Node) write(w io.Writer, depth int) error {
	indent := strings.Repeat("  ", depth)
	if len(n.Children) == 0 {
		var esc bytes.Buffer
		if err := xml.EscapeText(&esc, []byte(n.Text)); err != nil {
			return err
		}
		if n.Text == "" {
			_, err := fmt.Fprintf(w, "%s<%s/>\n", indent, n.Type)
			return err
		}
		_, err := fmt.Fprintf(w, "%s<%s>%s</%s>\n", indent, n.Type, esc.String(), n.Type)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s>\n", indent, n.Type); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := c.write(w, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Type)
	return err
}
