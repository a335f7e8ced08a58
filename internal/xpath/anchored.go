package xpath

import "rxview/internal/dag"

// anchored evaluates a path with an anchor (plan.anchor) over the ancestor
// cone of the nodes that can matter instead of the whole view:
//
//  1. seeds → A (climb): the nodes of type lk whose text equals s — from
//     Evaluator.Seeds where it answers (the live view's gen_id), else from
//     the raw per-type list — climbed k levels through Parents against
//     lk-1 … l1. A ⊇ {v : the anchoring filter holds at v}.
//  2. down → X: from A, the steps after the anchor by Children; ε[q] steps
//     are skipped (a superset is enough). X ⊇ r[[p]], because every
//     accepting root path crosses the anchor step at a node of A.
//  3. cone: X and its ancestors by Parents, level by level — up to the
//     path's window (plan.live) when it has one, else all of them.
//  4. entries: a node of the window's top level with a parent outside the
//     cone starts with the state-set a run brings into it from above the
//     window — the root reaches that parent, as it reaches every live node
//     (the evaluator's precondition): the // state alone, moved into it, for
//     a //-led path, the empty set for a rooted one. No filter is decided
//     outside the cone, where the pointwise truth bits are stale.
//  5. the exact pass: the shared propagation over the cone in Kahn's order,
//     each mask trimmed to the states still live at its node's level.
//
// By induction along the order each cone node receives exactly the
// state-sets the sweep gives it, less the states that can no longer accept
// (doc.go has the window lemma); X and its parents, which are all the
// results read, lose none. Nothing is kept between evaluations; the working
// sets live in the pooled scratch and cost nothing proportional to the view.
func (ev *Evaluator) anchored(r *run, pl *plan) {
	d, sc := ev.D, r.sc
	r.res.Route = RouteAnchored
	sc.fit(d.Cap())
	cur, next, cone := ev.climb(sc, pl.anchor)
	defer func() { sc.ids = [3][]dag.NodeID{cur, next, cone} }()

	// Down the remaining steps to X.
	for _, st := range pl.steps[pl.anchor.step+1:] {
		switch st.Kind {
		case StepLabel, StepWild:
			set := sc.newSet()
			next = next[:0]
			for _, v := range cur {
				for _, c := range d.Children(v) {
					if (st.Kind == StepWild || d.Type(c) == st.Label) && sc.add(set, c) {
						next = append(next, c)
					}
				}
			}
			cur, next = next, cur
		case StepDescOrSelf:
			set := sc.newSet()
			for _, v := range cur { // cur is duplicate-free: this marks, never drops
				sc.add(set, v)
			}
			for i := 0; i < len(cur); i++ {
				for _, c := range d.Children(cur[i]) {
					if sc.add(set, c) {
						cur = append(cur, c)
					}
				}
			}
		}
	}
	if len(cur) == 0 {
		return // X ⊇ r[[p]] is empty
	}

	// The cone, a level at a time, with the propagation state of each node
	// reset as it joins. top is where the last level starts: the window's
	// top when the window cut the climb, else len(cone).
	r.masks, r.live = sc.maskIndex(d.Cap(), false), pl.live
	set := sc.newSet()
	level := 0
	join := func(v dag.NodeID) {
		if sc.add(set, v) {
			r.masks[v], sc.known[v], sc.truth[v] = nil, 0, 0
			sc.level[v] = uint8(level) // read under a window only, where it is ≤ MaxSteps
			cone = append(cone, v)
		}
	}
	for _, v := range cur {
		join(v)
	}
	top := 0
	for level = 1; top < len(cone) && (pl.live == nil || level < len(pl.live)); level++ {
		end := len(cone)
		for _, v := range cone[top:end] {
			for _, p := range d.Parents(v) {
				join(p)
			}
		}
		top = end
	}
	r.res.Visited = len(cone)

	// The entries and the in-degrees: a top node's parents outside the cone
	// are never expanded, and one of them is enough to enter it.
	for i, v := range cone {
		ps := d.Parents(v)
		sc.indeg[v] = int32(len(ps))
		if i < top {
			continue
		}
		for _, p := range ps {
			if !sc.has(set, p) {
				sc.indeg[v]--
			}
		}
		if int(sc.indeg[v]) < len(ps) {
			var entry uint64 // a rooted path's run has died above the window
			if pl.steps[0].Kind == StepDescOrSelf {
				entry = r.trim(r.move(1, v), v)
			}
			r.masks[v] = append(sc.maskSlot(), entry)
		}
	}

	// Kahn's order from the nodes with no parent in the cone: the root, which
	// starts with a state-set of its own, and the entered top nodes.
	queue := next[:0]
	for _, v := range cone {
		if sc.indeg[v] == 0 {
			if v == d.Root() {
				r.start(v)
			}
			queue = append(queue, v)
		}
	}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, c := range d.Children(u) {
			if !sc.has(set, c) {
				continue
			}
			r.push(u, c)
			if sc.indeg[c]--; sc.indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	next = queue
	r.collect(cur)
}

// climb is step 1 of both routes that start from an anchor: A, the seeds of
// type lk whose text equals s climbed k levels, in the first of the
// scratch's three node lists, duplicate-free; the other two come back empty
// for the caller's use. The caller hands all three back to sc.ids when done.
func (ev *Evaluator) climb(sc *scratch, a *anchor) (cur, next, spare []dag.NodeID) {
	d := ev.D
	cur, next, spare = sc.ids[0][:0], sc.ids[1][:0], sc.ids[2][:0]
	// Seeds, by ev.Seeds or else a scan of the type's list, then up the
	// label chain: at level j cur holds nodes of type labels[j]; their
	// parents must be labels[j-1], and the parents of the l1 level — any
	// type — are A.
	k := len(a.labels)
	typ := a.labels[k-1]
	set := sc.newSet()
	found := false
	if ev.Seeds != nil {
		next, found = ev.Seeds(typ, a.value, next)
	}
	if found {
		for _, v := range next {
			if sc.add(set, v) {
				cur = append(cur, v)
			}
		}
	} else {
		eq := ev.textEq(typ, a.value)
		for _, v := range d.IDsOfType(typ) {
			if eq(v) && d.Alive(v) && sc.add(set, v) { // eq first: it is the selective test
				cur = append(cur, v)
			}
		}
	}
	for j := k - 1; j >= 0; j-- {
		set, next = sc.newSet(), next[:0]
		for _, v := range cur {
			for _, p := range d.Parents(v) {
				if (j == 0 || d.Type(p) == a.labels[j-1]) && sc.add(set, p) {
					next = append(next, p)
				}
			}
		}
		cur, next = next, cur
	}
	return cur, next[:0], spare
}

// fit sizes the anchored and down routes' per-node arrays for a view of n
// node ids.
// Growing keeps the stamps: a fresh zero never equals a live epoch.
func (sc *scratch) fit(n int) {
	sc.stamp, sc.indeg = grown(sc.stamp, n), grown(sc.indeg, n)
	sc.known, sc.truth = grown(sc.known, n), grown(sc.truth, n)
	sc.level = grown(sc.level, n)
}

// newSet opens an empty node set and returns its epoch; the previous set
// becomes unreadable.
func (sc *scratch) newSet() uint32 {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epochs
		clear(sc.stamp)
		sc.epoch = 1
	}
	return sc.epoch
}

// add puts v in the set and reports whether it was new.
func (sc *scratch) add(set uint32, v dag.NodeID) bool {
	if sc.stamp[v] == set {
		return false
	}
	sc.stamp[v] = set
	return true
}

func (sc *scratch) has(set uint32, v dag.NodeID) bool { return sc.stamp[v] == set }

// holds decides filter q at node v from v's children alone — the pointwise
// counterpart of the sweep's truth tables, for the //-free filters the
// anchored route admits.
func (ev *Evaluator) holds(q Expr, v dag.NodeID) bool {
	switch t := q.(type) {
	case *ExprLabel:
		return ev.D.Type(v) == t.Label
	case *ExprAnd:
		return ev.holds(t.L, v) && ev.holds(t.R, v)
	case *ExprOr:
		return ev.holds(t.L, v) || ev.holds(t.R, v)
	case *ExprNot:
		return !ev.holds(t.E, v)
	case *ExprPath:
		return ev.pathHolds(t.Path.compiled().steps, v, t.Cmp)
	}
	return false
}

// pathHolds reports whether the remaining filter steps can be matched from
// v, ending (when cmp is set) at a node whose text equals *cmp.
func (ev *Evaluator) pathHolds(steps []NStep, v dag.NodeID, cmp *string) bool {
	if len(steps) == 0 {
		return cmp == nil || ev.textIs(v, *cmp)
	}
	switch st := steps[0]; st.Kind {
	case StepSelf:
		return (st.Filter == nil || ev.holds(st.Filter, v)) && ev.pathHolds(steps[1:], v, cmp)
	case StepLabel, StepWild:
		for _, c := range ev.D.Children(v) {
			if (st.Kind == StepWild || ev.D.Type(c) == st.Label) && ev.pathHolds(steps[1:], c, cmp) {
				return true
			}
		}
	}
	return false
}
