package core

import (
	"slices"
	"sync"

	"rxview/internal/dag"
	"rxview/internal/xpath"
)

// An answer read off a sealed snapshot depends on nothing but what the
// evaluation read of it: by §2.3 a node's gen_id identity — its type and
// attribute tuple, and so its text — never changes, so what can change under
// an answer are the seed lookups it made and the adjacency lists it read.
// Reads records exactly those; Delta, built from the ΔV one seal carries,
// tells whether any of them changed. An answer whose reads the ΔV misses is
// the answer at the next snapshot too, so a serving memo carries it over.

// readCap bounds the ids one evaluation records: past it the reads are not
// kept and the answer is not carried (a sweep reads every node; no commit
// would miss that).
const readCap = 4096

// Reads is what one evaluation read of a sealed snapshot: the nodes whose
// child lists and whose parent lists it read (sorted, distinct), and its
// seed lookups.
type Reads struct {
	children, parents []dag.NodeID
	probes            []probe
}

// probe is one seed lookup: the live nodes of an element type whose text is
// text, or of any text when anyText is set (a scan of the type's list).
type probe struct {
	typ, text string
	anyText   bool
}

// recorder is the dag.Reader a recording evaluation reads a sealed version
// through: it forwards every read and notes the ones Reads keeps. Alive is
// asked only of a scanned type's nodes; it notes the node as a parent-list
// read, which a birth or a death of the node changes — so the note is at
// least as strong as the read.
type recorder struct {
	*dag.Version
	children, parents []dag.NodeID
	probes            []probe
	over              bool // more than readCap ids: nothing is kept
}

var recorders = sync.Pool{New: func() any { return new(recorder) }}

func (r *recorder) note(list *[]dag.NodeID, id dag.NodeID) {
	if r.over {
		return
	}
	if len(r.children)+len(r.parents) == readCap {
		r.over = true
		return
	}
	*list = append(*list, id)
}

func (r *recorder) Children(id dag.NodeID) []dag.NodeID {
	r.note(&r.children, id)
	return r.Version.Children(id)
}

func (r *recorder) Parents(id dag.NodeID) []dag.NodeID {
	r.note(&r.parents, id)
	return r.Version.Parents(id)
}

func (r *recorder) Alive(id dag.NodeID) bool {
	r.note(&r.parents, id)
	return r.Version.Alive(id)
}

func (r *recorder) IDsOfType(typ string) []dag.NodeID {
	r.probes = append(r.probes, probe{typ: typ, anyText: true})
	return r.Version.IDsOfType(typ)
}

// seeds is the recording evaluation's Evaluator.Seeds: the scan an
// unrecorded snapshot read makes of the type's list, noted as one probe.
func (r *recorder) seeds(textEq func(typ, s string) func(dag.NodeID) bool) func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool) {
	return func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool) {
		r.probes = append(r.probes, probe{typ: typ, text: s})
		eq := textEq(typ, s)
		for _, v := range r.Version.IDsOfType(typ) {
			if eq(v) && r.Version.Alive(v) {
				dst = append(dst, v)
			}
		}
		return dst, true
	}
}

// reads is what the recorder noted, in lists of their own, or nil past the
// cap.
func (r *recorder) reads() *Reads {
	if r.over {
		return nil
	}
	return &Reads{
		children: distinct(r.children),
		parents:  distinct(r.parents),
		probes:   slices.Clone(r.probes),
	}
}

// distinct is the sorted set of ids, in an array of its own.
func distinct(ids []dag.NodeID) []dag.NodeID {
	slices.Sort(ids)
	return slices.Clone(slices.Compact(ids))
}

// SelectReads is Select, recording what the evaluation reads: the reads are
// nil when it read more than readCap ids, or when the snapshot is not a
// sealed version (a test's deep copy). A recorded evaluation takes the route
// Select takes and selects what it selects.
func (sn *Snapshot) SelectReads(p *xpath.Path) (*xpath.Result, *Reads, error) {
	v, ok := sn.dag.(*dag.Version)
	if !ok {
		res, err := sn.Select(p)
		return res, nil, err
	}
	r := recorders.Get().(*recorder)
	r.Version = v
	ev := sn.evaluator()
	ev.D, ev.Seeds = r, r.seeds(sn.textEq)
	res, err := observeEval(ev.EvalSelect(p))
	reads := r.reads()
	r.Version, r.children, r.parents, r.probes, r.over = nil, r.children[:0], r.parents[:0], r.probes[:0], false
	recorders.Put(r)
	if err != nil {
		return nil, nil, err
	}
	return res, reads, nil
}

// Delta is the ΔV from one sealed snapshot to the next, indexed for Keeps.
type Delta struct {
	// parents holds the parent of every edge op and every node born or
	// killed — what a read child list can have changed at; children the
	// child of every edge op and the same nodes, for parent lists. Both are
	// sorted and distinct.
	parents, children []dag.NodeID
	births            []birth
}

// birth is a node born in a ΔV, as a seed lookup would see it.
type birth struct {
	typ, text string
	hasText   bool
}

// DeltaFrom returns the ΔV from prev to sn, or false when sn cannot tell:
// prev is not the snapshot sealed just before sn from the same view, or the
// view's state changed in a way no journal or record describes (a restore, a
// failed replay).
func (sn *Snapshot) DeltaFrom(prev *Snapshot) (*Delta, bool) {
	v, ok := sn.dag.(*dag.Version)
	pv, pok := prev.dag.(*dag.Version)
	if !ok || !pok {
		return nil, false
	}
	groups, ok := v.DeltaFrom(pv)
	if !ok {
		return nil, false
	}
	d := &Delta{}
	for _, ops := range groups {
		for _, op := range ops {
			switch op.Kind {
			case dag.DeltaNodeAdd:
				text, ok := sn.text(op.Node)
				d.births = append(d.births, birth{typ: v.Type(op.Node), text: text, hasText: ok})
				fallthrough
			case dag.DeltaNodeDel:
				d.parents = append(d.parents, op.Node)
				d.children = append(d.children, op.Node)
			default: // an edge op
				d.parents = append(d.parents, op.Edge.Parent)
				d.children = append(d.children, op.Edge.Child)
			}
		}
	}
	slices.Sort(d.parents)
	d.parents = slices.Compact(d.parents)
	slices.Sort(d.children)
	d.children = slices.Compact(d.children)
	return d, true
}

// Keeps reports whether an evaluation that read r at the earlier snapshot
// reads the same at the later one, and so answers the same: no edge op
// touches a child list it read (the op's parent) or a parent list (its
// child), no node it read is born or killed, and no node born matches one
// of its seed lookups. Nil reads — too many to keep — are never kept.
func (d *Delta) Keeps(r *Reads) bool {
	if r == nil || meets(r.children, d.parents) || meets(r.parents, d.children) {
		return false
	}
	for _, pr := range r.probes {
		for _, b := range d.births {
			if b.typ == pr.typ && (pr.anyText || b.hasText && b.text == pr.text) {
				return false
			}
		}
	}
	return true
}

// meets reports whether two sorted id lists share an id, searching the
// longer for each id of the shorter.
func meets(a, b []dag.NodeID) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); ok {
			return true
		}
	}
	return false
}
