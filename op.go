package rxview

import (
	"fmt"

	"rxview/internal/core"
	"rxview/internal/relational"
	"rxview/internal/update"
)

// Update is one XML view update ΔX (§2.1): insert a subtree under every node
// an XPath expression selects, or delete the selected subtree occurrences.
// Build one with Insert or Delete and pass it to View.Apply, View.DryRun or
// View.Batch.
type Update struct {
	delete   bool
	path     string
	elemType string
	attrs    []Value
}

// Insert builds the update "insert (A, t) into p": publish the subtree
// ST(A, t) — element type elemType with attribute tuple attrs, expanded
// recursively by the view's ATG — as the rightmost child of every node
// selected by the XPath expression path. The attrs are the element type's
// attribute fields in ATG declaration order.
func Insert(path, elemType string, attrs ...Value) Update {
	return Update{path: path, elemType: elemType, attrs: attrs}
}

// Delete builds the update "delete p": remove the parent-child edges Ep(r)
// selected by the XPath expression path (subtrees that become unreachable
// are garbage-collected).
func Delete(path string) Update {
	return Update{delete: true, path: path}
}

// Path returns the update's XPath expression.
func (u Update) Path() string { return u.path }

// String renders the update in the statement syntax.
func (u Update) String() string {
	if u.delete {
		return "delete " + u.path
	}
	return fmt.Sprintf("insert %s%s into %s", u.elemType, tupleOf(u.attrs), u.path)
}

// compile resolves the update against nothing but the XPath grammar (via
// the shared compiled-path cache, so a hot update target parses once); the
// receiving view validates types and attributes against its DTD and ATG.
func (u Update) compile() (*update.Op, error) {
	p, err := core.ParsePath(u.path)
	if err != nil {
		return nil, parseErr(u.path, err)
	}
	if u.delete {
		return &update.Op{Kind: update.OpDelete, Path: p}, nil
	}
	attr := make(relational.Tuple, len(u.attrs))
	for i, v := range u.attrs {
		attr[i] = v.v
	}
	return &update.Op{Kind: update.OpInsert, Path: p, Type: u.elemType, Attr: attr}, nil
}
