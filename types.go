package rxview

import (
	"fmt"
	"time"

	"rxview/internal/core"
	"rxview/internal/dag"
	"rxview/internal/relational"
)

// Node is one node of the DAG-compressed view, as returned by View.Query: a
// shared subtree occurs once, however many times the unfolded XML tree
// repeats it.
type Node struct {
	// Type is the element type (DTD tag).
	Type string `json:"type"`
	// Attr renders the node's attribute tuple, e.g. ("CS320", "Compilers").
	Attr string `json:"attr"`
	// Text is the node's text content, if the element type carries PCDATA.
	Text string `json:"text,omitempty"`
}

// String renders the node.
func (n Node) String() string {
	if n.Text != "" {
		return fmt.Sprintf("%s%s=%q", n.Type, n.Attr, n.Text)
	}
	return n.Type + n.Attr
}

// Mutation is one base-table change; the translation ΔR of an update is a
// []Mutation. The json tags name the fields for programs that marshal a
// Report themselves; the server's HTTP payloads carry each change as its
// String() rendering instead.
type Mutation struct {
	Table  string  `json:"table"`
	Insert bool    `json:"insert"` // true = insert, false = delete
	Tuple  []Value `json:"tuple"`
}

// String renders the mutation for logs and reports.
func (m Mutation) String() string {
	op := "delete"
	if m.Insert {
		op = "insert"
	}
	return fmt.Sprintf("%s %s %s", op, m.Table, tupleOf(m.Tuple))
}

func mutationsOf(dr []relational.Mutation) []Mutation {
	if len(dr) == 0 {
		return nil
	}
	out := make([]Mutation, len(dr))
	for i, m := range dr {
		out[i] = Mutation{Table: m.Table, Insert: m.Insert, Tuple: valuesOf(m.Tuple)}
	}
	return out
}

// Timings breaks an update into the phases the paper's Fig.11 reports:
// (a) XPath evaluation, (b) translation ΔX→ΔV→ΔR plus execution, and
// (c) maintenance (background in the paper) — plus, beyond the paper, the
// publication phase of the serving layer. Phase (c) here is the collection
// of what a deletion left unreachable, zero for an insertion; the paper's
// also maintains L and M, which a View does not carry (the experiments add
// that themselves, see internal/bench's Table1).
// Durations marshal as integer nanoseconds; the _ns tags make that explicit
// in the wire names.
type Timings struct {
	Validate  time.Duration `json:"validate_ns"`
	Eval      time.Duration `json:"eval_ns"`      // (a)
	Translate time.Duration `json:"translate_ns"` // (b): ΔX→ΔV and ΔV→ΔR (= XToDV + DVToDR)
	XToDV     time.Duration `json:"x_to_dv_ns"`   // Algorithm Xinsert / Xdelete (Figs.5–6)
	DVToDR    time.Duration `json:"dv_to_dr_ns"`  // Algorithm insert / delete (§4)
	Apply     time.Duration `json:"apply_ns"`     // (b): executing ΔR and ΔV
	Maintain  time.Duration `json:"maintain_ns"`  // (c): a deletion's garbage collection
	// Publish is the epoch-publication cost (sealing the copy-on-write
	// snapshot plus the pointer swap). It is stamped by the serving layer
	// on the report of the write unit that triggered the publication;
	// library-level Apply/Batch/Execute leave it zero (they publish no
	// epochs).
	Publish time.Duration `json:"publish_ns"`
}

// Total sums all phases (XToDV and DVToDR are sub-phases of Translate and
// are not added again).
func (t Timings) Total() time.Duration {
	return t.Validate + t.Eval + t.Translate + t.Apply + t.Maintain + t.Publish
}

func timingsOf(t core.Timings) Timings {
	return Timings{
		Validate:  t.Validate,
		Eval:      t.Eval,
		Translate: t.Translate,
		XToDV:     t.XToDV,
		DVToDR:    t.DVToDR,
		Apply:     t.Apply,
		Maintain:  t.Maintain,
	}
}

// Report describes one processed update. The json tags are for programs that
// marshal a Report themselves. They are not the server's wire format:
// /update, /batch and /tx answer with their own, smaller shape under the same
// names where the fields coincide — changes as rendered strings, the phase
// timings folded into one total_ns, no route (server/http.go, reportJSON).
// Timings.Maintain is the time spent collecting the Removed nodes (with the
// DVDeletes their deaths cascade into); no L or M is maintained.
type Report struct {
	Op          string     `json:"op"`                // the update, rendered
	Applied     bool       `json:"applied"`           // false for no-ops and rejections
	Targets     int        `json:"targets"`           // |r[[p]]|, nodes selected by the path
	Edges       int        `json:"edges"`             // |Ep(r)|, parent-child edges selected
	SideEffects bool       `json:"side_effects"`      // the update touched a shared subtree
	DVInserts   int        `json:"dv_inserts"`        // edges added to the view's edge relations
	DVDeletes   int        `json:"dv_deletes"`        // edges removed (including the GC cascade)
	Changes     []Mutation `json:"changes,omitempty"` // the relational translation ΔR, as executed
	Removed     int        `json:"removed"`           // garbage-collected nodes
	Route       string     `json:"route,omitempty"`   // how the path was evaluated: "anchored" or "sweep" ("down" is a read's only); empty if rejected before evaluation
	Timings     Timings    `json:"timings"`
}

func reportOf(r *core.Report) *Report {
	if r == nil {
		return nil
	}
	return &Report{
		Op:          r.Op,
		Applied:     r.Applied,
		Targets:     r.RP,
		Edges:       r.EP,
		SideEffects: r.SideEffects,
		DVInserts:   r.DVInserts,
		DVDeletes:   r.DVDeletes,
		Changes:     mutationsOf(r.DR),
		Removed:     r.Removed,
		Route:       r.Route,
		Timings:     timingsOf(r.Timings),
	}
}

// Stats summarizes the view — the quantities of Fig.10(b) in the paper: DAG
// size, uncompressed tree size and sharing. A View carries neither L nor the
// reachability matrix, so MatrixPairs is 0 on every view and snapshot; the
// field stays for the wire shape and its readers. |L| and |M| for the
// figure are the experiments' (internal/bench) to compute.
type Stats struct {
	BaseRows    int     `json:"base_rows"`    // total tuples in the published database
	Nodes       int     `json:"nodes"`        // DAG nodes (n)
	Edges       int     `json:"edges"`        // DAG edges (|V|, the size of the relational views)
	TreeSize    float64 `json:"tree_size"`    // uncompressed |T|
	Compression float64 `json:"compression"`  // TreeSize / Nodes
	SharedNodes int     `json:"shared_nodes"` // nodes with >1 parent
	SharedFrac  float64 `json:"shared_frac"`  // SharedNodes / Nodes
	MatrixPairs int     `json:"matrix_pairs"` // |M|; always 0, a View has no M
}

// String renders the statistics in a Fig.10(b)-style line.
func (st Stats) String() string {
	return fmt.Sprintf(
		"rows=%d nodes=%d edges=%d tree=%.0f compression=%.2fx shared=%.1f%%",
		st.BaseRows, st.Nodes, st.Edges, st.TreeSize, st.Compression,
		100*st.SharedFrac)
}

func statsOf(st core.Stats) Stats {
	return Stats{
		BaseRows:    st.BaseRows,
		Nodes:       st.Nodes,
		Edges:       st.Edges,
		TreeSize:    st.TreeSize,
		Compression: st.Compression,
		SharedNodes: st.SharedNodes,
		SharedFrac:  st.SharedFrac,
	}
}

// nodeOf renders a DAG node through the view's accessors.
func nodeOf(d dag.Reader, text func(dag.NodeID) (string, bool), id dag.NodeID) Node {
	n := Node{Type: d.Type(id), Attr: d.Attr(id).String()}
	if text != nil {
		if s, ok := text(id); ok {
			n.Text = s
		}
	}
	return n
}

// nodesOf renders a selection r[[p]] — shared by the live View and its
// frozen Snapshots so the two query paths can never diverge.
func nodesOf(d dag.Reader, text func(dag.NodeID) (string, bool), ids []dag.NodeID) []Node {
	out := make([]Node, len(ids))
	for i, id := range ids {
		out[i] = nodeOf(d, text, id)
	}
	return out
}
