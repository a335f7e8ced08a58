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
//     it, decided pointwise. The root reaches every live node (the
//     evaluator's precondition), so the prefix //, steps[1] accepts a root
//     path into each of them: these are the nodes where the anchor step can
//     be crossed.
//  2. the propagation from each a ∈ A′, begun in the state after the
//     anchor, down Children with one union mask per node; a node is queued
//     again whenever its mask gains a bit, so the order does not matter.
//
// Every accepting root path crosses the anchor step at some a ∈ A′, and from
// there on it is a path of step 2, so Selected — the visited nodes whose
// mask accepts — is r[[p]]. Step 2 sees only the paths that start in A′,
// not every occurrence of a node, which is all a selection needs and why
// Eval, whose witnesses read every occurrence, keeps the cone.
func (ev *Evaluator) down(r *run, pl *plan) {
	d, sc := ev.D, r.sc
	r.res.Route = RouteDown
	sc.fit(d.Cap())
	cur, queue, _ := ev.climb(sc, pl.anchor)
	defer func() { sc.ids[0], sc.ids[1] = cur, queue }()

	// A′, filtered in place.
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
