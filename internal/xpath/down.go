package xpath

import (
	"slices"

	"rxview/internal/dag"
)

// down answers EvalSelect for a //-led anchored path (plan.down) from the
// anchor nodes downward, with no ancestor cone:
//
//  1. A′: the climb's candidates A, kept where the node is not the root, its
//     type matches steps[1], and every filter of steps[2..anchor] holds at
//     it, decided pointwise.
//  2. reachability: of A′, the nodes some root path leads to. The prefix
//     //, steps[1] accepts a root path into a iff a is reachable and
//     matches steps[1], so these are the nodes where the anchor step can be
//     crossed. On a committed state (Evaluator.Committed) the root reaches
//     every live node, and A′ is kept whole without a walk.
//  3. the propagation from each such a, begun in the state after the
//     anchor, down Children with one union mask per node; a node is queued
//     again whenever its mask gains a bit, so the order does not matter.
//
// Every accepting root path crosses the anchor step at some a ∈ A′, and from
// there on it is a path of step 3, so Selected — the visited nodes whose
// mask accepts — is r[[p]]. Step 3 sees only the paths that start in A′,
// not every occurrence of a node, which is all a selection needs and why
// Eval, whose witnesses read every occurrence, keeps the cone.
func (ev *Evaluator) down(r *run, pl *plan) {
	d, sc := ev.D, r.sc
	r.res.Route = RouteDown
	sc.fit(d.Cap())
	cur, queue, stack := ev.climb(sc, pl.anchor)
	defer func() { sc.ids[0], sc.ids[1], sc.ids[2] = cur, queue, stack }()

	// A′, filtered in place, then reachability.
	label, filters := pl.steps[1], pl.steps[2:pl.anchor.step+1]
	starts := cur[:0]
next:
	for _, a := range cur {
		if a == d.Root() || label.Kind == StepLabel && d.Type(a) != label.Label {
			continue
		}
		for _, st := range filters {
			if st.Filter != nil && !ev.holds(st.Filter, a) {
				continue next
			}
		}
		starts = append(starts, a)
	}
	cur = starts
	if !ev.Committed {
		reached := sc.newSet()
		cur = starts[:0]
		for _, a := range starts {
			var ok bool
			if ok, stack = ev.reachable(sc, reached, a, stack); ok {
				cur = append(cur, a)
			}
		}
	}

	// The propagation. A node's pooled state is reset on its first visit:
	// it still holds whatever the previous evaluation left there.
	r.masks = sc.maskIndex(d.Cap(), false)
	seen := sc.newSet()
	touch := func(v dag.NodeID) {
		if sc.add(seen, v) {
			r.masks[v], sc.known[v], sc.truth[v] = nil, 0, 0
			r.res.Visited++
		}
	}
	gain := func(v dag.NodeID, m uint64) {
		switch set := r.masks[v]; {
		case m == 0:
			return
		case set == nil:
			r.masks[v] = append(sc.maskSlot(), m)
		case m&^set[0] != 0:
			set[0] |= m
		default:
			return
		}
		queue = append(queue, v)
	}
	start := uint64(1) << uint(pl.anchor.step+1)
	for _, a := range cur {
		touch(a)
		gain(a, r.closure(start, a))
	}
	for i := 0; i < len(queue); i++ {
		m := r.masks[queue[i]][0] &^ r.accept
		if m == 0 {
			continue
		}
		for _, c := range d.Children(queue[i]) {
			touch(c)
			gain(c, r.move(m, c))
		}
	}

	for _, v := range queue {
		if r.masks[v][0]&r.accept != 0 {
			r.res.Selected = append(r.res.Selected, v)
		}
	}
	slices.Sort(r.res.Selected)
	r.res.Selected = slices.Compact(r.res.Selected) // a node is queued once per gain
}

// reachable reports whether some root path leads to v. Verdicts are kept in
// set, one per member u: sc.indeg[u] is 1 for reachable and 0 for not (the
// down route keeps no in-degrees; the anchored route, which asks about the
// parents outside its window, counts its in-degrees after). stack is a
// reusable buffer, handed back.
//
// The first-parent walk decides v in O(depth): every node on it is
// reachable once the walk meets the root or a reachable member. Outside a
// transaction that is every walk, because every live non-root node has a
// live parent (dag.DAG.Collect collects the rest). Inside one, the live
// view can hold a parentless non-root node; a walk that meets one, or a
// member found unreachable, falls back to a search of v's whole ancestry.
func (ev *Evaluator) reachable(sc *scratch, set uint32, v dag.NodeID, stack []dag.NodeID) (bool, []dag.NodeID) {
	d, root := ev.D, ev.D.Root()
	stack = stack[:0]
	for u := v; ; {
		if u == root || sc.has(set, u) && sc.indeg[u] == 1 {
			for _, w := range stack {
				sc.add(set, w)
				sc.indeg[w] = 1
			}
			return true, stack
		}
		ps := d.Parents(u)
		if len(ps) == 0 || sc.has(set, u) {
			break
		}
		stack = append(stack, u)
		u = ps[0]
	}

	// The search: members it opens are pending (-1) until it ends. Finding
	// no way up decides every one of them unreachable; finding one decides v
	// alone, and the others leave the set undecided.
	stack = append(stack[:0], v)
	sc.add(set, v)
	sc.indeg[v] = -1
	found := false
search:
	for i := 0; i < len(stack); i++ {
		for _, p := range d.Parents(stack[i]) {
			switch {
			case p == root || sc.has(set, p) && sc.indeg[p] == 1:
				found = true
				break search
			case sc.add(set, p):
				sc.indeg[p] = -1
				stack = append(stack, p)
			}
		}
	}
	for _, u := range stack {
		sc.indeg[u] = 0
		if found {
			sc.stamp[u] = 0 // out of every set: no epoch is 0
		}
	}
	if found {
		sc.add(set, v)
		sc.indeg[v] = 1
	}
	return found, stack
}
