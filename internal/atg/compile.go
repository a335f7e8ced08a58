package atg

import (
	"fmt"

	"rxview/internal/dtd"
	"rxview/internal/relational"
)

// Provenance describes how to recover the base tuples that derive one edge of
// the view — the deletable source Sr(Q, t) machinery of §4.2. For each FROM
// entry of the rule query it gives, per key column, a derivation from the
// edge's (parent attr, child attr) pair.
type Provenance struct {
	// Tables lists the base tables of the rule query, in FROM order.
	Tables []string
	// KeySources[i][k] derives the k-th key column of Tables[i]; resolve
	// with the child attribute as the query output and the parent
	// attribute as the parameters.
	KeySources [][]relational.DerivationSource
	// Closure[i][c] derives column c of Tables[i] from the edge's
	// attributes, nil where the query's WHERE equalities do not determine
	// it: the query's equality closure, computed once when the rule is
	// compiled.
	Closure [][]*relational.DerivationSource
}

// CompiledRule is a validated rule plus derived metadata.
type CompiledRule struct {
	*Rule
	// Prov is non-nil for query rules: the key-preservation provenance.
	Prov *Provenance
}

// Compiled is a validated ATG ready for publishing and update translation.
type Compiled struct {
	*ATG
	rules   map[string]map[string]*CompiledRule
	textIdx map[string]int // PCDATA type -> attribute component holding its text

	fingerprint Fingerprint
}

// Compile validates the ATG against its DTD and schema:
//
//   - every production child has exactly one rule of the right kind
//     (star/alternation children: query rule; sequence children: projection
//     rule); PCDATA and EMPTY types have none;
//   - query rules take the parent attribute as parameters and produce the
//     child attribute as projection, with matching arities and kinds;
//   - every query rule satisfies key preservation (§4.1): each base
//     relation's key columns are derivable from the edge's attributes via
//     the query's equality closure. Violations report which table and
//     columns to add to the attribute (the paper's "extend the projection
//     list" fix).
func Compile(a *ATG) (*Compiled, error) {
	if a.DTD == nil || a.Schema == nil {
		return nil, fmt.Errorf("atg: DTD and Schema are required")
	}
	if err := a.DTD.Validate(); err != nil {
		return nil, err
	}
	if len(a.Attrs[a.DTD.Root]) != 0 {
		return nil, fmt.Errorf("atg: root type %s must have an empty attribute", a.DTD.Root)
	}
	c := &Compiled{ATG: a, rules: make(map[string]map[string]*CompiledRule), textIdx: textIndexes(a)}

	for _, typ := range a.DTD.Types() {
		prod := a.DTD.Elems[typ]
		attr := a.Attrs[typ]
		switch prod.Kind {
		case dtd.PCData:
			if len(attr) == 0 {
				return nil, fmt.Errorf("atg: PCDATA type %s needs an attribute to carry its text", typ)
			}
			ti := a.TextIndex[typ]
			if ti < 0 || ti >= len(attr) {
				return nil, fmt.Errorf("atg: %s: text index %d out of range", typ, ti)
			}
			fallthrough
		case dtd.Empty:
			if len(a.Rules[typ]) != 0 {
				return nil, fmt.Errorf("atg: leaf type %s must not have rules", typ)
			}
			continue
		}
		// Children must be covered exactly.
		rules := a.Rules[typ]
		if len(rules) != len(distinct(prod.Children)) {
			return nil, fmt.Errorf("atg: %s: %d rules for %d child types", typ, len(rules), len(distinct(prod.Children)))
		}
		for _, child := range prod.Children {
			r := rules[child]
			if r == nil {
				return nil, fmt.Errorf("atg: %s: missing rule for child %s", typ, child)
			}
			cr, err := c.compileRule(r, prod.Kind, attr, a.Attrs[child])
			if err != nil {
				return nil, err
			}
			m := c.rules[typ]
			if m == nil {
				m = make(map[string]*CompiledRule)
				c.rules[typ] = m
			}
			m[child] = cr
		}
	}
	c.fingerprint = c.computeFingerprint()
	return c, nil
}

func distinct(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func (c *Compiled) compileRule(r *Rule, prodKind dtd.ContentKind, parentAttr, childAttr []AttrField) (*CompiledRule, error) {
	name := r.Parent + "→" + r.Child
	switch prodKind {
	case dtd.Star, dtd.Alt:
		if r.Query == nil {
			return nil, fmt.Errorf("atg: rule %s: %v children need a query rule", name, prodKind)
		}
	case dtd.Seq:
		if r.Proj == nil {
			return nil, fmt.Errorf("atg: rule %s: sequence children need a projection rule", name)
		}
	}
	if r.Query != nil {
		q := r.Query
		if q.NParams != len(parentAttr) {
			return nil, fmt.Errorf("atg: rule %s: query takes %d params, parent attr has %d fields",
				name, q.NParams, len(parentAttr))
		}
		if len(q.Selects) != len(childAttr) {
			return nil, fmt.Errorf("atg: rule %s: query projects %d columns, child attr has %d fields",
				name, len(q.Selects), len(childAttr))
		}
		kp, err := relational.CheckKeyPreservation(c.Schema, q)
		if err != nil {
			return nil, fmt.Errorf("atg: rule %s: %w", name, err)
		}
		if !kp.Preserved() {
			for i, missing := range kp.Missing {
				return nil, fmt.Errorf(
					"atg: rule %s is not key preserving: key column(s) %v of %s are not derivable from ($%s, $%s); extend the attribute/projection to include them (§4.1)",
					name, missing, q.From[i].Table, r.Parent, r.Child)
			}
		}
		prov := &Provenance{KeySources: kp.KeySources}
		for i, ref := range q.From {
			prov.Tables = append(prov.Tables, ref.Table)
			cols := make([]*relational.DerivationSource, len(c.Schema.Table(ref.Table).Columns))
			for col := range cols {
				if d, ok := kp.Closure[[2]int{i, col}]; ok {
					cols[col] = &d
				}
			}
			prov.Closure = append(prov.Closure, cols)
		}
		return &CompiledRule{Rule: r, Prov: prov}, nil
	}
	// Projection rule.
	if len(r.Proj) != len(childAttr) {
		return nil, fmt.Errorf("atg: rule %s: projects %d items, child attr has %d fields",
			name, len(r.Proj), len(childAttr))
	}
	for i, it := range r.Proj {
		if it.FromParent >= len(parentAttr) {
			return nil, fmt.Errorf("atg: rule %s item %d: parent attr index %d out of range",
				name, i, it.FromParent)
		}
	}
	return &CompiledRule{Rule: r}, nil
}

// Rule returns the compiled rule for a parent→child pair, or nil.
func (c *Compiled) Rule(parent, child string) *CompiledRule {
	return c.rules[parent][child]
}

// QueryRules returns every compiled query rule (the rules whose edges the
// relational view-update algorithms can translate), in DTD type order.
func (c *Compiled) QueryRules() []*CompiledRule {
	var out []*CompiledRule
	for _, parent := range c.DTD.Types() {
		prod := c.DTD.Elems[parent]
		for _, child := range distinct(prod.Children) {
			if r := c.rules[parent][child]; r != nil && r.Query != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// SourceTuples resolves the deletable/insertable source of an edge with the
// given parent and child attributes: for each base table of the rule query,
// the key values of the contributing tuple. This is Sr(Q, t) of §4.2,
// computable in O(1) per table thanks to key preservation.
func (r *CompiledRule) SourceTuples(parentAttr, childAttr relational.Tuple) []SourceKey {
	if r.Prov == nil {
		return nil
	}
	out := make([]SourceKey, 0, len(r.Prov.Tables))
	for i, table := range r.Prov.Tables {
		out = append(out, SourceKey{Table: table, Key: r.SourceKeyAt(i, parentAttr, childAttr)})
	}
	return out
}

// SourceKeyAt resolves the key of the i-th source alone:
// SourceTuples(parentAttr, childAttr)[i].Key.
func (r *CompiledRule) SourceKeyAt(i int, parentAttr, childAttr relational.Tuple) relational.Tuple {
	keys := make(relational.Tuple, len(r.Prov.KeySources[i]))
	for k, src := range r.Prov.KeySources[i] {
		keys[k] = src.Resolve(childAttr, parentAttr)
	}
	return keys
}

// SourceKey identifies one base tuple by table and primary-key values.
type SourceKey struct {
	Table string
	Key   relational.Tuple
}

// AppendKey appends the injective encoding of the source key to dst: the
// table, a zero byte, the key tuple's encoding. It is what the source index
// is keyed by.
func (s SourceKey) AppendKey(dst []byte) []byte {
	dst = append(dst, s.Table...)
	dst = append(dst, 0)
	return relational.AppendKey(dst, s.Key, nil)
}

// Encode returns AppendKey as a string, for callers that keep the key.
func (s SourceKey) Encode() string {
	var a [relational.KeyBufLen]byte
	return string(s.AppendKey(a[:0]))
}

// AppendSourceKey appends SourceTuples(parentAttr, childAttr)[i].AppendKey to
// dst without building the SourceKey: maintaining the source index takes one
// per table of every edge that comes or goes.
func (r *CompiledRule) AppendSourceKey(dst []byte, i int, parentAttr, childAttr relational.Tuple) []byte {
	dst = append(dst, r.Prov.Tables[i]...)
	dst = append(dst, 0)
	for _, src := range r.Prov.KeySources[i] {
		dst = relational.AppendValue(dst, src.Resolve(childAttr, parentAttr))
	}
	return dst
}

func (s SourceKey) String() string { return s.Table + s.Key.String() }
