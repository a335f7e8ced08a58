// Package update implements the XML side of update processing: the update
// statements of §2.1 (insert (A,t) into p / delete p), the schema-level DTD
// validation of §2.4, and the translation algorithm Xinsert (Fig.5) that
// turns a single XML insertion into a group update ΔV over the edge
// relations of the DAG-compressed view. Xdelete (Fig.6) needs no code of its
// own: ΔV of a deletion is Ep(r), the edges XPath evaluation returns.
package update

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/xpath"
)

// OpKind distinguishes insertions from deletions.
type OpKind uint8

// Update kinds.
const (
	OpInsert OpKind = iota
	OpDelete
)

func (k OpKind) String() string {
	if k == OpInsert {
		return "insert"
	}
	return "delete"
}

// Op is an XML view update ΔX.
type Op struct {
	Kind OpKind
	Path *xpath.Path
	// Type and Attr define the inserted subtree ST(A, t); unused for
	// deletions.
	Type string
	Attr relational.Tuple
}

func (o Op) String() string {
	if o.Kind == OpDelete {
		return "delete " + o.Path.String()
	}
	return fmt.Sprintf("insert %s%s into %s", o.Type, o.Attr, o.Path.String())
}

// Xinsert is Algorithm Xinsert (Fig.5): it publishes ST(A, t) into the DAG
// (storing each shared subtree once — set semantics of the edge relations)
// and connects it as the rightmost child of every node in r[[p]]. The DAG
// must be inside a transaction: ΔV is what the journal records from a mark
// the caller took before the call (DAG.DeltaSince), and the caller rolls
// back to that mark if the relational translation rejects the update.
func Xinsert(c *atg.Compiled, d *dag.DAG, db *relational.Database, rp []dag.NodeID, elemType string, attr relational.Tuple) error {
	if !d.InTxn() {
		return fmt.Errorf("update: Xinsert requires an open DAG transaction")
	}
	root, err := c.PublishSubtree(d, db, elemType, attr)
	if err != nil {
		return err
	}
	for _, u := range rp {
		if u == root || d.Type(u) == elemType {
			return fmt.Errorf("update: cannot insert %s under %s node", elemType, d.Type(u))
		}
		// Prevent cycles: inserting a subtree under its own descendant
		// would fold the view into a cyclic (infinite) document.
		if reaches(d, root, u) {
			return fmt.Errorf("update: inserting %s%s under node %d would create a cycle",
				elemType, attr, u)
		}
		d.AddEdge(u, root)
	}
	return nil
}

// reaches reports whether DFS from src reaches dst.
func reaches(d *dag.DAG, src, dst dag.NodeID) bool {
	if src == dst {
		return true
	}
	seen := map[dag.NodeID]bool{src: true}
	stack := []dag.NodeID{src}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range d.Children(x) {
			if c == dst {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

// ParseStatement parses the textual update syntax used by the CLI and
// examples:
//
//	insert course(cno="CS240", title="Algorithms") into //course[cno="CS320"]/prereq
//	delete //student[ssn="S02"]
//
// Attribute fields are typed and ordered per the ATG declaration; all fields
// must be given (the semantic attribute determines the node identity).
func ParseStatement(c *atg.Compiled, stmt string) (*Op, error) {
	s := strings.TrimSpace(stmt)
	if rest, ok := keyword(s, "delete"); ok {
		p, err := xpath.Parse(rest)
		if err != nil {
			return nil, err
		}
		return &Op{Kind: OpDelete, Path: p}, nil
	}
	rest, ok := keyword(s, "insert")
	if !ok {
		return nil, fmt.Errorf("update: statement must start with insert or delete: %q", stmt)
	}
	open := strings.Index(rest, "(")
	if open < 0 {
		return nil, fmt.Errorf("update: expected '(' after element type in %q", stmt)
	}
	elemType := strings.TrimSpace(rest[:open])
	fieldPart := rest[open+1:]
	closeIdx := indexTop(fieldPart, ')')
	if closeIdx < 0 {
		return nil, fmt.Errorf("update: expected ')' in %q", stmt)
	}
	fieldPart, rest = fieldPart[:closeIdx], strings.TrimSpace(fieldPart[closeIdx+1:])
	rest, ok = keyword(rest, "into")
	if !ok {
		return nil, fmt.Errorf("update: expected 'into' in %q", stmt)
	}
	p, err := xpath.Parse(rest)
	if err != nil {
		return nil, err
	}
	attr, err := parseAttr(c, elemType, fieldPart)
	if err != nil {
		return nil, err
	}
	return &Op{Kind: OpInsert, Path: p, Type: elemType, Attr: attr}, nil
}

// keyword reports whether s starts with the whole word kw, and returns what
// follows it, trimmed: "deletefoo" does not start with delete.
func keyword(s, kw string) (string, bool) {
	rest, ok := strings.CutPrefix(s, kw)
	if !ok {
		return "", false
	}
	if r, _ := utf8.DecodeRuneInString(rest); unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

func parseAttr(c *atg.Compiled, elemType, fields string) (relational.Tuple, error) {
	decl, ok := c.Attrs[elemType]
	if !ok {
		return nil, fmt.Errorf("update: unknown element type %s", elemType)
	}
	attr := make(relational.Tuple, len(decl))
	given := make([]bool, len(decl))
	for _, part := range splitTop(fields, ',') {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.Index(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("update: malformed field %q", part)
		}
		name := strings.TrimSpace(part[:eq])
		raw := strings.TrimSpace(part[eq+1:])
		raw = strings.Trim(raw, `"'`)
		idx := -1
		for i, f := range decl {
			if f.Name == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("update: %s has no attribute field %q", elemType, name)
		}
		if given[idx] {
			return nil, fmt.Errorf("update: attribute field %s.%s given twice", elemType, name)
		}
		v, err := relational.ParseValue(decl[idx].Type, raw)
		if err != nil {
			return nil, err
		}
		attr[idx] = v
		given[idx] = true
	}
	for i, g := range given {
		if !g {
			return nil, fmt.Errorf("update: missing attribute field %s.%s", elemType, decl[i].Name)
		}
	}
	return attr, nil
}

// indexTop returns the index of the first sep outside quotes in s, or -1.
func indexTop(s string, sep byte) int {
	quote := byte(0)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == sep:
			return i
		}
	}
	return -1
}

// splitTop splits on sep outside quotes.
func splitTop(s string, sep byte) []string {
	var out []string
	for i := indexTop(s, sep); i >= 0; i = indexTop(s, sep) {
		out = append(out, s[:i])
		s = s[i+1:]
	}
	return append(out, s)
}
