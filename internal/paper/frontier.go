package paper

import (
	"cmp"
	"slices"

	"rxview/internal/dag"
	"rxview/internal/xpath"
)

// FrontierEvaluator is the paper-literal top-down evaluation of §3.2:
// starting from the root it computes the node set Ci reached after each
// normalized step ηi, pruning with the bottom-up filter values, and uses the
// reachability matrix M to expand "//" steps ("these nodes can be easily
// found ... by means of the reachability matrix M when ηi is //").
//
// Selection (r[[p]]) and Ep(r) agree with xpath.Evaluator.Eval; side effects
// are detected with the paper's per-step approximation — S collects the Ci
// nodes whose parents (child steps) or ancestors (// steps) are not reached
// via p. S flags the intermediate nodes where sharing occurs, so it relates
// to the exact occurrence-level detector as a boolean screen: an empty S
// guarantees the update has no side effects, while a non-empty S may
// over-report (the shared region may not reach an actual target). It exists
// for fidelity to the paper's use of M during evaluation and for the
// strategy ablation.
type FrontierEvaluator struct {
	D      *dag.DAG
	Topo   *Topo
	Matrix *Matrix
	Text   func(dag.NodeID) (string, bool)
}

// Eval runs the two passes and returns selection, Ep(r), and the
// approximate side-effect set S (as InsertWitnesses; DeleteWitnesses mirror
// the edges of over-shared parents).
func (fe *FrontierEvaluator) Eval(p *xpath.Path) (*xpath.Result, error) {
	// The sweep's bottom-up pass gives the filter tables; the
	// suffix-satisfiability tables of the main path, used for pruning Ci,
	// are computed here.
	ev := &xpath.Evaluator{D: fe.D, Text: fe.Text}
	steps, filterVals, err := ev.StepFilters(p)
	if err != nil {
		return nil, err
	}
	sat := fe.suffixSat(steps, filterVals)

	capn := fe.D.Cap()
	cur := make([]bool, capn)
	cur[fe.D.Root()] = true
	if !sat[0][fe.D.Root()] {
		return &xpath.Result{}, nil
	}
	sideEffect := make(map[dag.NodeID]bool)
	var lastParents []bool // frontier before the last child-consuming step
	var lastClosure Row    // descendant closure of the pre-// frontier, for trailing //
	var haveClosure bool   // lastClosure is valid (a // was the last consuming step)

	for i, st := range steps {
		next := make([]bool, capn)
		switch st.Kind {
		case xpath.StepSelf:
			fv := filterVals[i]
			for id := range cur {
				if !cur[id] {
					continue
				}
				if st.Filter == nil || fv[id] {
					next[id] = true
				}
			}
		case xpath.StepLabel, xpath.StepWild:
			lastParents, haveClosure = cur, false
			for id := range cur {
				if !cur[id] {
					continue
				}
				v := dag.NodeID(id)
				for _, u := range fe.D.Children(v) {
					if st.Kind == xpath.StepLabel && fe.D.Type(u) != st.Label {
						continue
					}
					if sat[i+1][u] {
						next[u] = true
					}
				}
			}
			// Paper's S for "/": parents of Ci not reached via p.
			for id := range next {
				if !next[id] {
					continue
				}
				for _, w := range fe.D.Parents(dag.NodeID(id)) {
					if !cur[w] {
						sideEffect[dag.NodeID(id)] = true
					}
				}
			}
		case xpath.StepDescOrSelf:
			lastParents = nil
			// Expand descendants-or-self via M (the paper's use of the
			// reachability matrix for //): the closure of the frontier is
			// one row union per frontier node, then a single sweep over its
			// bits applies the satisfiability pruning.
			closure := NewRow(capn)
			for id := range cur {
				if !cur[id] {
					continue
				}
				v := dag.NodeID(id)
				closure.Set(v)
				closure.Or(fe.Matrix.DescendantRow(v))
			}
			for d := range closure.All() {
				if sat[i+1][d] {
					next[d] = true
				}
			}
			// Paper's S for "//": ancestors of Ci not inside the matched
			// closure (which contains the frontier itself) — a word-level
			// "any bit outside the mask" test per selected node.
			for id := range next {
				if !next[id] {
					continue
				}
				if fe.Matrix.AncestorRow(dag.NodeID(id)).AnyNotIn(closure) {
					sideEffect[dag.NodeID(id)] = true
				}
			}
			lastClosure, haveClosure = closure, true
		}
		cur = next
	}

	res := &xpath.Result{}
	for id := range cur {
		if cur[id] {
			res.Selected = append(res.Selected, dag.NodeID(id))
		}
	}
	slices.Sort(res.Selected)

	// Ep(r): parents through which p reaches each selected node — the
	// pre-step frontier for a child step, the descendant closure of the
	// pre-// frontier for a trailing //.
	for _, v := range res.Selected {
		for _, u := range fe.D.Parents(v) {
			switch {
			case lastParents != nil && lastParents[u]:
				res.Edges = append(res.Edges, dag.Edge{Parent: u, Child: v})
			case lastParents == nil && haveClosure && lastClosure.Contains(u):
				res.Edges = append(res.Edges, dag.Edge{Parent: u, Child: v})
			}
		}
	}
	slices.SortFunc(res.Edges, func(a, b dag.Edge) int {
		return cmp.Or(cmp.Compare(a.Parent, b.Parent), cmp.Compare(a.Child, b.Child))
	})

	for id := range sideEffect {
		res.InsertWitnesses = append(res.InsertWitnesses, id)
	}
	slices.Sort(res.InsertWitnesses)
	return res, nil
}

// suffixSat computes, for every step index i (0..n), whether the remaining
// path ηi..ηn can be matched starting at each node — the bottom-up val
// tables of §3.2 for the main path, used to prune the top-down frontier.
func (fe *FrontierEvaluator) suffixSat(steps []xpath.NStep, filterVals [][]bool) [][]bool {
	capn := fe.D.Cap()
	nodes := fe.Topo.Nodes()
	n := len(steps)
	out := make([][]bool, n+1)
	cur := make([]bool, capn)
	for _, v := range nodes {
		cur[v] = true
	}
	out[n] = cur
	for i := n - 1; i >= 0; i-- {
		next := make([]bool, capn)
		switch steps[i].Kind {
		case xpath.StepSelf:
			if steps[i].Filter == nil {
				copy(next, cur)
			} else {
				fv := filterVals[i]
				for _, v := range nodes {
					next[v] = fv[v] && cur[v]
				}
			}
		case xpath.StepLabel:
			for _, v := range nodes {
				for _, u := range fe.D.Children(v) {
					if fe.D.Type(u) == steps[i].Label && cur[u] {
						next[v] = true
						break
					}
				}
			}
		case xpath.StepWild:
			for _, v := range nodes {
				for _, u := range fe.D.Children(v) {
					if cur[u] {
						next[v] = true
						break
					}
				}
			}
		case xpath.StepDescOrSelf:
			for _, v := range nodes { // forward L: children first
				if cur[v] {
					next[v] = true
					continue
				}
				for _, u := range fe.D.Children(v) {
					if next[u] {
						next[v] = true
						break
					}
				}
			}
		}
		out[i] = next
		cur = next
	}
	return out
}
