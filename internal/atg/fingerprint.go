package atg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// Fingerprint identifies a compiled grammar: two grammars with the same
// fingerprint publish the same view of the same database. A checkpoint
// carries the fingerprint of the grammar it was written under, so a state is
// never restored under a grammar that would have published something else.
type Fingerprint [16]byte

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Fingerprint returns the grammar's fingerprint, computed when it was
// compiled.
func (c *Compiled) Fingerprint() Fingerprint { return c.fingerprint }

// computeFingerprint is SHA-256, cut to 128 bits, over the DTD, then per
// element type (sorted) its attribute fields, its text component and its
// rules in production order — a query rule as its SPJ query, a projection
// rule item by item — then every table schema (sorted) with its column types.
// Every list is written with its length or a terminator, so no two grammars
// render to the same bytes.
func (c *Compiled) computeFingerprint() Fingerprint {
	h := sha256.New()
	io.WriteString(h, c.DTD.String())
	for _, typ := range c.DTD.Types() {
		fmt.Fprintf(h, "type %q text=%d attr=%d\n", typ, c.TextIndex[typ], len(c.Attrs[typ]))
		for _, f := range c.Attrs[typ] {
			fmt.Fprintf(h, " %q %s\n", f.Name, f.Type)
		}
		for _, child := range distinct(c.DTD.Elems[typ].Children) {
			r := c.rules[typ][child]
			if r == nil {
				continue
			}
			if r.Query != nil {
				fmt.Fprintf(h, "rule %q→%q params=%d %s\n", typ, child, r.Query.NParams, r.Query)
				continue
			}
			fmt.Fprintf(h, "rule %q→%q proj=%d\n", typ, child, len(r.Proj))
			for _, it := range r.Proj {
				fmt.Fprintf(h, " %d %s %q\n", it.FromParent, it.Const.K, it.Const)
			}
		}
	}
	for _, name := range c.Schema.TableNames() {
		ts := c.Schema.Table(name)
		fmt.Fprintf(h, "table %s\n", ts)
		for _, col := range ts.Columns {
			fmt.Fprintf(h, " %q %s\n", col.Name, col.Type)
		}
	}
	var f Fingerprint
	copy(f[:], h.Sum(nil))
	return f
}
