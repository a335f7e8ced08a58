package atg

import (
	"fmt"
	"strconv"

	"rxview/internal/dag"
	"rxview/internal/dtd"
	"rxview/internal/relational"
)

// PublishDAG materializes the DAG compression of σ(I) (§2.3): the view is
// generated top-down with reference to the DTD, but each subtree ST(A, $A)
// is expanded exactly once — gen_id memoization turns repeated occurrences
// into shared references.
func (c *Compiled) PublishDAG(db *relational.Database) (*dag.DAG, error) {
	d := dag.New(c.DTD.Root)
	if err := c.expand(d, db, d.Root(), make(map[dag.NodeID]int8)); err != nil {
		return nil, err
	}
	return d, nil
}

// PublishSubtree publishes ST(A, t) into an existing DAG: the subtree of
// type typ with semantic attribute t, generated from the current database.
// Already-present nodes are reused without re-expansion (their subtrees are
// consistent by the system invariant). It returns the subtree root.
//
// Callers that may reject the enclosing update should run it inside an open
// DAG journal and unwind with d.RollbackTo(mark) (or d.Rollback()); the new
// nodes and edges are available from d.ChangesSince(mark).
func (c *Compiled) PublishSubtree(d *dag.DAG, db *relational.Database, typ string, attr relational.Tuple) (dag.NodeID, error) {
	if _, ok := c.DTD.Elems[typ]; !ok {
		return dag.InvalidNode, fmt.Errorf("atg: unknown element type %s", typ)
	}
	if err := c.CheckAttr(typ, attr); err != nil {
		return dag.InvalidNode, fmt.Errorf("atg: %w", err)
	}
	root, created := d.AddNode(typ, attr)
	if !created {
		return root, nil
	}
	if err := c.expand(d, db, root, make(map[dag.NodeID]int8)); err != nil {
		return dag.InvalidNode, err
	}
	return root, nil
}

// CheckAttr reports whether attr fits element type typ's attribute
// declaration: one field per declared attribute, each of the declared kind
// or null.
func (c *Compiled) CheckAttr(typ string, attr relational.Tuple) error {
	decl := c.Attrs[typ]
	if len(attr) != len(decl) {
		return fmt.Errorf("%s attribute has %d fields, want %d", typ, len(attr), len(decl))
	}
	for i, v := range attr {
		if v.K != decl[i].Type && !v.IsNull() {
			return fmt.Errorf("%s.%s: kind %v, want %v", typ, decl[i].Name, v.K, decl[i].Type)
		}
	}
	return nil
}

// expand generates the children of node and recurses. state guards against
// cyclic source data (e.g. a prereq cycle), which would make the view
// infinite: 1 = in progress, 2 = done.
func (c *Compiled) expand(d *dag.DAG, db *relational.Database, node dag.NodeID, state map[dag.NodeID]int8) error {
	if state[node] == 2 {
		return nil
	}
	if state[node] == 1 {
		return fmt.Errorf("atg: cyclic source data: %s%s is its own descendant",
			d.Type(node), d.Attr(node))
	}
	state[node] = 1
	typ := d.Type(node)
	attr := d.Attr(node)
	prod := c.DTD.Elems[typ]

	addChild := func(childType string, childAttr relational.Tuple) error {
		id, created := d.AddNode(childType, childAttr)
		if state[id] == 1 {
			return fmt.Errorf("atg: cyclic source data: %s%s is its own descendant", childType, childAttr)
		}
		d.AddEdge(node, id)
		if created {
			return c.expand(d, db, id, state)
		}
		// Pre-existing node: its subtree is already complete (publishing
		// expands every new node exactly once, and updates keep the DAG
		// consistent), so do not re-expand.
		return nil
	}

	switch prod.Kind {
	case dtd.PCData, dtd.Empty:
		// leaves
	case dtd.Seq:
		for _, child := range prod.Children {
			r := c.rules[typ][child]
			childAttr := make(relational.Tuple, len(r.Proj))
			for i, it := range r.Proj {
				if it.FromParent >= 0 {
					childAttr[i] = attr[it.FromParent]
				} else {
					childAttr[i] = it.Const
				}
			}
			if err := addChild(child, childAttr); err != nil {
				return err
			}
		}
	case dtd.Star:
		child := prod.Children[0]
		r := c.rules[typ][child]
		rows, err := r.Query.Eval(db, []relational.Value(attr))
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := addChild(child, relational.Tuple(row)); err != nil {
				return err
			}
		}
	case dtd.Alt:
		total := 0
		for _, child := range distinct(prod.Children) {
			r := c.rules[typ][child]
			rows, err := r.Query.Eval(db, []relational.Value(attr))
			if err != nil {
				return err
			}
			total += len(rows)
			if total > 1 {
				return fmt.Errorf("atg: alternation %s: more than one alternative produced", typ)
			}
			for _, row := range rows {
				if err := addChild(child, relational.Tuple(row)); err != nil {
					return err
				}
			}
		}
		if total == 0 {
			return fmt.Errorf("atg: alternation %s%s: no alternative produced", typ, attr)
		}
	}
	state[node] = 2
	return nil
}

// textIndexes resolves, once per compiled grammar, which attribute component
// carries each PCDATA type's text; a type absent from the table has no text.
func textIndexes(a *ATG) map[string]int {
	idx := make(map[string]int)
	for typ, prod := range a.DTD.Elems {
		if prod.Kind == dtd.PCData {
			idx[typ] = a.TextIndex[typ]
		}
	}
	return idx
}

// Text returns the node-text function for the published view: PCDATA
// elements render their designated attribute component; other elements have
// no text. This is what XPath value filters p = "s" compare against.
func (c *Compiled) Text(d dag.Reader) func(dag.NodeID) (string, bool) {
	return func(id dag.NodeID) (string, bool) {
		idx, ok := c.textIdx[d.Type(id)]
		if !ok {
			return "", false
		}
		attr := d.Attr(id)
		if idx >= len(attr) {
			return "", false
		}
		return attr[idx].String(), true
	}
}

// TextEquals returns the typed form of the comparison Text(v) == s: given an
// element type and a constant it yields a predicate over nodes of that type
// (the caller vouches for the type) that holds exactly when Text renders the
// node to s — without rendering. The constant is parsed once per value kind:
// an integer component matches only its canonical decimal rendering, so
// "007" matches no integer just as it equals no Value.String().
func (c *Compiled) TextEquals(d dag.Reader) func(typ, s string) func(dag.NodeID) bool {
	return func(typ, s string) func(dag.NodeID) bool {
		idx, ok := c.textIdx[typ]
		if !ok {
			return func(dag.NodeID) bool { return false }
		}
		i, err := strconv.ParseInt(s, 10, 64)
		isInt := err == nil && strconv.FormatInt(i, 10) == s
		return func(id dag.NodeID) bool {
			attr := d.Attr(id)
			if idx >= len(attr) {
				return false
			}
			switch v := &attr[idx]; v.K {
			case relational.KindString:
				return v.S == s
			case relational.KindInt:
				return isInt && v.I == i
			default: // bool, NULL, symbolic variables: rare as text, rendered
				return v.String() == s
			}
		}
	}
}

// TextSeeds returns the live view's seed function: the live nodes of an
// element type whose text is s, appended to dst, found through the Skolem
// registry gen_id (§2.3) instead of a scan of the type's node list. It
// reports false where the registry cannot answer, and the caller scans.
//
// A PCDATA type whose attribute is one field has text $A[0].String(), so its
// nodes with text s are exactly the live gen_id(type, (c)) for c among
// relational.Renderings(s): ids are never reused, and every node's attribute
// has its type's declared arity (CheckAttr). A type without text has no such
// node. A type with more fields (text is one of them) reports false.
//
// It takes the *dag.DAG, not a dag.Reader: a sealed Version carries no
// registry, so reads over snapshots keep the scan.
func (c *Compiled) TextSeeds(d *dag.DAG) func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool) {
	return func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool) {
		if _, ok := c.textIdx[typ]; !ok {
			return dst, true
		}
		if len(c.Attrs[typ]) != 1 {
			return dst, false
		}
		var buf [2]relational.Value
		for _, v := range relational.Renderings(s, buf[:0]) {
			if id, ok := d.Lookup(typ, relational.Tuple{v}); ok {
				dst = append(dst, id)
			}
		}
		return dst, true
	}
}
