package xpath

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"rxview/internal/dag"
)

// Evaluator evaluates paths of the fragment over a DAG-compressed view.
//
// Every evaluation runs the normalized path as an NFA over root-to-node
// paths: a node accumulates the set of distinct NFA state-sets that its tree
// occurrences (root paths) can arrive with. A node is in r[[p]] iff some
// occurrence accepts; an update has side effects iff some occurrence of an
// updated node does not accept — exactly the paper's tree-unfolding
// semantics, computed on the DAG. Three routes drive that one propagation
// (doc.go has the argument for why they agree):
//
//   - the sweep, §3.2's two passes in O(|p|·|V|): filter truth tables
//     bottom-up, then the propagation, ancestors first, over the nodes the
//     root reaches — in a children-first order the sweep computes itself
//     where §3.2 reads the topological order L, which no view keeps;
//   - the anchored route, for paths with a value-equality filter: find the
//     nodes the filter can hold at (Seeds, or the per-type node lists), walk
//     down to a superset of r[[p]], climb from it into its ancestor cone —
//     for a path with no // after its first step only as many levels as
//     the path has child steps, its window — and propagate over the cone
//     only, deciding filters pointwise;
//   - the down route, EvalSelect's for anchored paths led by // and one
//     label or * step: keep the anchor nodes that filter and label admit and
//     the root reaches, and propagate from them downward only.
//
// Eval and EvalSelect pick the route from the path's shape (Result.Route
// names the one taken); EvalSweep and EvalSelectSweep always sweep — the reference
// the other routes are tested against, and what the paper-reproduction
// experiments measure.
//
// D is a read-only interface, so an Evaluator runs equally over the live
// view (*dag.DAG) and over a sealed snapshot epoch (*dag.Version). Either
// way D must be rooted: the root reaches every live node (testkit.CheckRooted).
// Every state an evaluation can start on is — an applied insert connects
// ST(A,t) under every target, an applied delete ends in dag.DAG.Collect, and a
// stage that does not apply is rewound to its mark — so no route walks for
// reachability. On a state that is not rooted the routes may disagree, but
// none panics or hangs. An Evaluator holds no per-evaluation state: one
// value serves any number of concurrent evaluations.
type Evaluator struct {
	D dag.Reader
	// Text returns the text value of a node (PCDATA elements); nil means no
	// node has text, making all value comparisons false.
	Text func(dag.NodeID) (string, bool)
	// TextEquals, when set, is the typed form of Text(v) == s: for an
	// element type and a constant it returns that predicate over nodes of
	// the type, without rendering (atg.Compiled.TextEquals). Nil derives it
	// from Text.
	TextEquals func(typ, s string) func(dag.NodeID) bool
	// Seeds, when set, appends to dst the live nodes of an element type
	// whose text equals s, without scanning the type's node list
	// (atg.Compiled.TextSeeds, through the live view's Skolem registry), and
	// reports false where it cannot tell. The anchored and down routes start
	// from these; nil, or false, means they scan IDsOfType with TextEquals.
	Seeds func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool)
	// MaskLimit caps the number of distinct state-sets kept per node before
	// collapsing to their union. Selection and Ep(r) stay exact under
	// collapse; side-effect detection becomes conservative and the result's
	// Overflow flag is set. Default 1024.
	MaskLimit int
}

// Result is the outcome of evaluating a path p from the root.
type Result struct {
	// Selected is r[[p]]: nodes with at least one accepting occurrence, in
	// id order.
	Selected []dag.NodeID
	// Edges is Ep(r): edges (u,v) with v ∈ Selected such that p reaches v
	// through u (§3.2); deletions remove exactly these edges.
	Edges []dag.Edge
	// InsertWitnesses are the selected nodes that also have a non-accepting
	// occurrence: inserting under them changes unselected tree occurrences
	// too (the paper's side-effect set S for insertions).
	InsertWitnesses []dag.NodeID
	// DeleteWitnesses are the Ep(r) edges some of whose tree occurrences
	// are not selected: removing the shared edge changes those occurrences
	// as well.
	DeleteWitnesses []dag.Edge
	// Overflow reports that mask collapsing kicked in at a node the
	// evaluation visited; side-effect witnesses are then conservative
	// (possibly over-reported). The anchored route visits only the cone,
	// where each node holds the sweep's sets less the states that can no
	// longer accept there (the window lemma, doc.go) and so no more
	// distinct ones: it raises Overflow only when the sweep would too,
	// never the reverse.
	Overflow bool

	// Route is the route the evaluation took and Visited the number of
	// nodes it propagated over: the size of the cone (X and its ancestors,
	// up to the path's window when it has one) or of the down set, or the
	// number of nodes the root reaches for a sweep.
	Route   Route
	Visited int
}

// HasInsertSideEffects reports whether an insertion at r[[p]] would have XML
// side effects per §2.1.
func (r *Result) HasInsertSideEffects() bool {
	return len(r.InsertWitnesses) > 0 || r.Overflow
}

// HasDeleteSideEffects reports whether deleting the Ep(r) edges would have
// XML side effects per §2.1.
func (r *Result) HasDeleteSideEffects() bool {
	return len(r.DeleteWitnesses) > 0 || r.Overflow
}

// MaxSteps is the maximum number of normalized steps any evaluator accepts:
// the NFA states of a path with n steps are the bits 0..n of a uint64 mask,
// so n is capped at 62 (bit n is the accept state, leaving one bit of
// headroom). Every evaluation strategy enforces the same limit with the
// same *PathTooLongError, so the §3.2 strategy ablation cannot silently
// diverge on deep paths.
const MaxSteps = 62

// PathTooLongError reports a path that normalizes to more than MaxSteps
// steps.
type PathTooLongError struct {
	Steps int // normalized step count of the offending path
}

func (e *PathTooLongError) Error() string {
	return fmt.Sprintf("xpath: path too long: %d normalized steps (max %d)", e.Steps, MaxSteps)
}

// checkLen enforces MaxSteps uniformly across evaluators.
func checkLen(steps []NStep) error {
	if n := len(steps); n > MaxSteps {
		return &PathTooLongError{Steps: n}
	}
	return nil
}

// Eval evaluates the path and returns the selection, parent edges and
// side-effect witnesses, by the route the path's shape allows.
func (ev *Evaluator) Eval(p *Path) (*Result, error) { return ev.eval(p, false, false) }

// EvalSelect computes only r[[p]]: state-sets collapse to a single union
// mask per node, which keeps selection exact (transitions are bit-linear),
// and an anchored path led by // and one label or * step reads by the down
// route, from its anchor nodes downward. Use it for read-only queries;
// updates need Eval's Ep(r) and side-effect detection. The result carries
// Selected, Route and Visited only: no Ep(r), no witnesses, no Overflow.
func (ev *Evaluator) EvalSelect(p *Path) (*Result, error) { return ev.eval(p, false, true) }

// EvalSweep is Eval by the sweep whatever the path's shape.
func (ev *Evaluator) EvalSweep(p *Path) (*Result, error) { return ev.eval(p, true, false) }

// EvalSelectSweep is EvalSelect by the sweep whatever the path's shape.
func (ev *Evaluator) EvalSelectSweep(p *Path) (*Result, error) { return ev.eval(p, true, true) }

// StepFilters is the bottom-up half of the sweep, for an evaluator that runs
// its own top-down pass: the path's normal form η1/…/ηn and, per step, the
// truth table of its filter over the nodes the root reaches (nil for a step
// without one), indexed by NodeID. The steps are shared with every
// evaluation of p and must not be modified; the tables are the caller's.
func (ev *Evaluator) StepFilters(p *Path) ([]NStep, [][]bool, error) {
	pl := p.compiled()
	if err := checkLen(pl.steps); err != nil {
		return nil, nil, err
	}
	sc := scratchPool.Get().(*scratch)
	tables := ev.evalFilters(pl, ev.order(sc), nil)
	scratchPool.Put(sc)
	return pl.steps, stepTables(pl, tables), nil
}

func (ev *Evaluator) eval(p *Path, sweep, selectOnly bool) (*Result, error) {
	pl := p.compiled()
	if err := checkLen(pl.steps); err != nil {
		return nil, err
	}
	limit := ev.MaskLimit
	if limit <= 0 {
		limit = 1024
	}
	if selectOnly {
		limit = 1 // collapse eagerly: one union mask per node
	}
	sc := scratchPool.Get().(*scratch)
	r := &run{
		ev:         ev,
		steps:      pl.steps,
		accept:     1 << uint(len(pl.steps)),
		limit:      limit,
		selectOnly: selectOnly,
		sc:         sc,
		res:        &Result{},
	}
	switch {
	case sweep || pl.anchor == nil:
		ev.sweep(r, pl)
	case selectOnly && pl.down:
		ev.down(r, pl)
	default:
		ev.anchored(r, pl)
	}
	scratchPool.Put(sc)
	res := r.res
	if selectOnly {
		res.InsertWitnesses, res.DeleteWitnesses, res.Overflow = nil, nil, false
	}
	return res, nil
}

// textEq returns the predicate "the text of v equals s" over nodes of one
// element type.
func (ev *Evaluator) textEq(typ, s string) func(dag.NodeID) bool {
	if ev.TextEquals != nil {
		return ev.TextEquals(typ, s)
	}
	return func(v dag.NodeID) bool { return ev.textIs(v, s) }
}

// textIs is the untyped comparison, for nodes whose type the path leaves
// open.
func (ev *Evaluator) textIs(v dag.NodeID, s string) bool {
	if ev.Text == nil {
		return false
	}
	t, ok := ev.Text(v)
	return ok && t == s
}

// ---------- per-eval scratch ----------

// scratch recycles the evaluator's per-eval working memory — the Cap-sized
// filter truth tables of the sweep, the per-node state-set index, and the
// anchored route's node sets and in-degrees — across evaluations, via a
// package pool. A nil *scratch degrades to plain allocation of filter
// tables (StepFilters, whose caller keeps them). Results never alias
// scratch memory, so pooled buffers are safe to hand to the next evaluation
// on any goroutine.
type scratch struct {
	tables [][]bool  // free filter tables, any capacity
	masks  []maskSet // the node -> state-sets index, reused across evals
	arena  []uint64  // backing for small per-node mask sets
	off    int

	// Anchored and down routes. stamp implements node sets without
	// clearing: v is in the set opened last iff stamp[v] == epoch, so
	// opening a set is one increment. Only the newest set is readable, which
	// is all the routes need: their phases build one set at a time.
	stamp []uint32
	epoch uint32
	indeg []int32 // per cone node: parents not yet expanded
	// Per cone node, pointwise filter truth: bit i of known[v] says
	// steps[i].Filter has been decided at v, bit i of truth[v] how.
	known, truth []uint64
	level        []uint8         // per cone node: levels above X, for run.trim
	ids          [3][]dag.NodeID // reusable node lists (frontiers, X, the cone; the sweep's order and walk)
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// table returns a zeroed []bool of length n, reusing a freed table when one
// is large enough.
func (sc *scratch) table(n int) []bool {
	if sc != nil {
		for i := len(sc.tables) - 1; i >= 0; i-- {
			if b := sc.tables[i]; cap(b) >= n {
				sc.tables = append(sc.tables[:i], sc.tables[i+1:]...)
				b = b[:n]
				clear(b)
				return b
			}
		}
	}
	return make([]bool, n)
}

// putTable returns a table to the free list.
func (sc *scratch) putTable(b []bool) {
	if sc != nil && b != nil {
		sc.tables = append(sc.tables, b)
	}
}

// maskIndex returns the node -> state-sets index for a view of n node ids
// and resets the mask arena — by now no slot of the previous eval is
// referenced anymore. The sweep takes it zeroed; the anchored route resets
// the entries of the nodes it visits as it meets them, so its cost does not
// depend on n.
func (sc *scratch) maskIndex(n int, zero bool) []maskSet {
	sc.masks = grown(sc.masks, n)
	if zero {
		clear(sc.masks[:n])
	}
	sc.off = 0
	return sc.masks[:n]
}

// grown returns s with at least n elements, reallocating the way append
// does — geometrically — when it is short: a view gains an identity with
// every insertion, and a Cap-sized array re-made at exactly the new size
// would be re-made by every evaluation that follows one. What s held is
// kept and the rest is zero.
func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	s = append(s, make([]T, n-len(s))...)
	return s[:cap(s)]
}

// maskSlot carves an empty 2-capacity mask set out of the arena: the
// overwhelmingly common case is one or two distinct state-sets per node, so
// most nodes never allocate. Appending past the capped slot migrates the
// set to the heap without touching its arena neighbors.
func (sc *scratch) maskSlot() maskSet {
	if sc.off+2 > len(sc.arena) {
		sc.arena = make([]uint64, 1<<14)
		sc.off = 0
	}
	s := sc.arena[sc.off : sc.off : sc.off+2]
	sc.off += 2
	return s
}

// ---------- the propagation both routes share ----------

// maskSet is the set of distinct NFA state-set masks arriving at one node.
// Nodes rarely accumulate more than a handful of masks, so a linear-scan
// slice beats a per-node map and recycles through the eval scratch.
type maskSet []uint64

func (s maskSet) contains(m uint64) bool {
	for _, mm := range s {
		if mm == m {
			return true
		}
	}
	return false
}

// run is one evaluation's propagation state. The routes differ only in
// which nodes they visit, in what (topological) order, and in where filter
// truth comes from; everything that decides the result is here.
type run struct {
	ev     *Evaluator
	steps  []NStep
	accept uint64 // the bit of the accepting state
	limit  int    // state-sets kept per node before collapsing to their union
	// selectOnly skips Ep(r): push records no edge.
	selectOnly bool
	// tables[i] is the truth table of steps[i].Filter (nil where the step
	// has none) when the route computed filters bottom-up; a nil tables
	// means filters are decided pointwise at the node, once per (step,
	// node), and remembered in the scratch's known/truth bits.
	tables [][]bool
	masks  []maskSet
	// live trims a windowed anchored run's masks by the scratch's levels
	// (plan.live); nil means no trim.
	live []uint64
	sc   *scratch
	res  *Result
}

func (r *run) filterAt(i int, v dag.NodeID) bool {
	q := r.steps[i].Filter
	switch {
	case q == nil:
		return true
	case r.tables != nil:
		return r.tables[i][v]
	}
	sc, bit := r.sc, uint64(1)<<uint(i)
	if sc.known[v]&bit == 0 {
		sc.known[v] |= bit
		if r.ev.holds(q, v) {
			sc.truth[v] |= bit
		}
	}
	return sc.truth[v]&bit != 0
}

// closure adds the states reachable by ε moves at node v: a satisfied ε[q]
// step and the self part of //. Bits only propagate upward, so one
// low-to-high pass over the set bits suffices.
func (r *run) closure(mask uint64, v dag.NodeID) uint64 {
	for rem := mask &^ r.accept; rem != 0; {
		i := bits.TrailingZeros64(rem)
		rem &^= 1 << uint(i)
		next := uint64(1) << uint(i+1)
		if mask&next != 0 {
			continue
		}
		switch r.steps[i].Kind {
		case StepSelf:
			if !r.filterAt(i, v) {
				continue
			}
		case StepDescOrSelf:
		default:
			continue
		}
		mask |= next
		rem |= next &^ r.accept
	}
	return mask
}

// move consumes the child step into node u.
func (r *run) move(mask uint64, u dag.NodeID) uint64 {
	var out uint64
	for rem := mask &^ r.accept; rem != 0; {
		i := bits.TrailingZeros64(rem)
		rem &^= 1 << uint(i)
		switch r.steps[i].Kind {
		case StepLabel:
			if r.ev.D.Type(u) == r.steps[i].Label {
				out |= 1 << uint(i+1)
			}
		case StepWild:
			out |= 1 << uint(i+1)
		case StepDescOrSelf:
			out |= 1 << uint(i) // descend, stay before //
		}
	}
	return r.closure(out, u)
}

// trim drops from a mask at v the states that can no longer accept: those
// with fewer child steps left than v's level in a windowed cone.
func (r *run) trim(mask uint64, v dag.NodeID) uint64 {
	if r.live != nil {
		mask &= r.live[r.sc.level[v]]
	}
	return mask
}

// start gives the root its initial state-set.
func (r *run) start(root dag.NodeID) {
	r.masks[root] = append(r.sc.maskSlot(), r.trim(r.closure(1, root), root))
}

func (r *run) addMask(v dag.NodeID, m uint64) {
	set := r.masks[v]
	if set.contains(m) {
		return
	}
	if set == nil {
		set = r.sc.maskSlot()
	}
	set = append(set, m)
	if len(set) > r.limit {
		// Collapse to the union: transitions are bit-linear, so selection
		// and Ep stay exact; side effects become conservative.
		var union uint64
		for _, mm := range set {
			union |= mm
		}
		set = append(set[:0], union)
		r.res.Overflow = true
	}
	r.masks[v] = set
}

// push carries u's state-sets across the edge (u,c). The routes expand
// nodes in topological order, so u's sets are final here, and a DAG holds an
// edge once: every occurrence of the edge is seen in this one call, which
// therefore settles it — in Ep(r) iff some occurrence accepts at c, a
// delete witness iff another does not.
func (r *run) push(u, c dag.NodeID) {
	var acc, rej bool
	for _, m := range r.masks[u] {
		m2 := r.trim(r.move(m, c), c)
		r.addMask(c, m2)
		if m2&r.accept != 0 {
			acc = true
		} else {
			rej = true
		}
	}
	if acc && !r.selectOnly {
		e := dag.Edge{Parent: u, Child: c}
		r.res.Edges = append(r.res.Edges, e)
		if rej {
			r.res.DeleteWitnesses = append(r.res.DeleteWitnesses, e)
		}
	}
}

// collect reads r[[p]] and the insert witnesses off the final state-sets of
// the candidate nodes (each listed once) and puts the result in its
// canonical order.
func (r *run) collect(candidates []dag.NodeID) {
	res := r.res
	for _, v := range candidates {
		sel, rej := false, false
		for _, m := range r.masks[v] {
			if m&r.accept != 0 {
				sel = true
			} else {
				rej = true
			}
		}
		if sel {
			res.Selected = append(res.Selected, v)
			if rej {
				res.InsertWitnesses = append(res.InsertWitnesses, v)
			}
		}
	}
	slices.Sort(res.Selected)
	slices.Sort(res.InsertWitnesses)
	sortEdges(res.Edges)
	sortEdges(res.DeleteWitnesses)
}

func sortEdges(es []dag.Edge) {
	slices.SortFunc(es, func(a, b dag.Edge) int {
		if a.Parent != b.Parent {
			return int(a.Parent) - int(b.Parent)
		}
		return int(a.Child) - int(b.Child)
	})
}

// ---------- the sweep ----------

// sweep is the two-pass scheme of §3.2: filter tables bottom-up, then the
// propagation, ancestors first, over the nodes the root reaches. Both
// passes are O(|p|·|V|) for the practical case of few distinct state-sets,
// matching the paper's complexity claim; ordering the nodes is one more
// O(|V|) walk.
func (ev *Evaluator) sweep(r *run, pl *plan) {
	sc := r.sc
	nodes := ev.order(sc)
	filterVals := ev.evalFilters(pl, nodes, sc)
	r.tables = stepTables(pl, filterVals)
	r.masks = sc.maskIndex(ev.D.Cap(), true)
	r.res.Route, r.res.Visited = RouteSweep, len(nodes)

	r.start(ev.D.Root())
	for k := len(nodes) - 1; k >= 0; k-- { // backward order: ancestors first
		u := nodes[k]
		for _, c := range ev.D.Children(u) {
			r.push(u, c)
		}
	}
	r.collect(nodes)
	for _, t := range filterVals {
		sc.putTable(t)
	}
}

// order lists the nodes the root reaches, children first: the order both
// passes of the sweep run over, where §3.2 reads the topological order L.
// It is the post-order of a depth-first walk from the root, iterative — a
// published chain can be as deep as the view — in the scratch's lists; the
// slice is good until the scratch's next use.
//
// The walk's stack holds a node to expand, or the complement ^v of one
// expanded, which is emitted once everything pushed after it is done. A
// node is marked when it is expanded; a child pushed before that may be
// expanded through another parent first, and is skipped when popped. A
// marked node still on the way — expanded, not yet emitted — is an
// ancestor of the node being expanded, so in a DAG no child is one, and
// every node is emitted after its children.
func (ev *Evaluator) order(sc *scratch) []dag.NodeID {
	d := ev.D
	sc.stamp = grown(sc.stamp, d.Cap())
	set := sc.newSet()
	out, stack := sc.ids[0][:0], append(sc.ids[1][:0], d.Root())
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case v < 0:
			out = append(out, ^v)
		case sc.add(set, v):
			stack = append(stack, ^v)
			for _, c := range d.Children(v) {
				if !sc.has(set, c) {
					stack = append(stack, c)
				}
			}
		}
	}
	sc.ids[0], sc.ids[1] = out, stack
	return out
}

// evalFilters computes the truth table (per node) of every filter
// sub-expression, in dependency order, indexed like pl.filters. Tables come
// from the scratch free list; the caller releases them when done.
func (ev *Evaluator) evalFilters(pl *plan, nodes []dag.NodeID, sc *scratch) [][]bool {
	tables := make([][]bool, len(pl.filters))
	for i, q := range pl.filters {
		tables[i] = ev.filterTable(q, nodes, pl, tables, sc)
	}
	return tables
}

// stepTables resolves each step's filter to its table once per evaluation,
// so the propagation indexes a slice instead of hashing an interface value
// per node.
func stepTables(pl *plan, tables [][]bool) [][]bool {
	out := make([][]bool, len(pl.steps))
	for i, s := range pl.steps {
		if s.Filter != nil {
			out[i] = tables[pl.index[s.Filter]]
		}
	}
	return out
}

func (ev *Evaluator) filterTable(q Expr, nodes []dag.NodeID, pl *plan, tables [][]bool, sc *scratch) []bool {
	capn := ev.D.Cap()
	switch t := q.(type) {
	case *ExprLabel:
		out := sc.table(capn)
		for _, v := range nodes {
			out[v] = ev.D.Type(v) == t.Label
		}
		return out
	case *ExprAnd:
		out := sc.table(capn)
		l, r := tables[pl.index[t.L]], tables[pl.index[t.R]]
		for i := range out {
			out[i] = l[i] && r[i]
		}
		return out
	case *ExprOr:
		out := sc.table(capn)
		l, r := tables[pl.index[t.L]], tables[pl.index[t.R]]
		for i := range out {
			out[i] = l[i] || r[i]
		}
		return out
	case *ExprNot:
		out := sc.table(capn)
		e := tables[pl.index[t.E]]
		for _, v := range nodes {
			out[v] = !e[v]
		}
		return out
	case *ExprPath:
		return ev.pathFilterTable(t, nodes, pl, tables, sc)
	}
	return sc.table(capn)
}

// pathFilterTable computes val(p, v) (or val(p="s", v)) for all nodes by the
// suffix recurrence of §3.2.
func (ev *Evaluator) pathFilterTable(f *ExprPath, nodes []dag.NodeID, pl *plan, tables [][]bool, sc *scratch) []bool {
	steps := f.Path.compiled().steps
	capn := ev.D.Cap()
	// nodes is in forward order: children before parents.

	// Terminal table: the path has been fully consumed at v.
	cur := sc.table(capn)
	switch typ, typed := terminalType(steps); {
	case f.Cmp == nil:
		for _, v := range nodes {
			cur[v] = true
		}
	case typed:
		// Only nodes of the path's last label can complete it, so the
		// comparison runs typed over that type's list instead of rendering
		// the text of every node of the view.
		eq := ev.textEq(typ, *f.Cmp)
		for _, v := range ev.D.IDsOfType(typ) {
			if eq(v) && ev.D.Alive(v) {
				cur[v] = true
			}
		}
	default:
		for _, v := range nodes {
			cur[v] = ev.textIs(v, *f.Cmp)
		}
	}

	for i := len(steps) - 1; i >= 0; i-- {
		next := sc.table(capn)
		switch steps[i].Kind {
		case StepSelf:
			if steps[i].Filter == nil {
				copy(next, cur)
			} else {
				fv := tables[pl.index[steps[i].Filter]]
				for _, v := range nodes {
					next[v] = fv[v] && cur[v]
				}
			}
		case StepLabel:
			for _, v := range nodes {
				for _, u := range ev.D.Children(v) {
					if cur[u] && ev.D.Type(u) == steps[i].Label {
						next[v] = true
						break
					}
				}
			}
		case StepWild:
			for _, v := range nodes {
				for _, u := range ev.D.Children(v) {
					if cur[u] {
						next[v] = true
						break
					}
				}
			}
		case StepDescOrSelf:
			// desc recurrence: val(//rest, v) = val(rest, v) ∨ ∃child u:
			// val(//rest, u). Children-first order makes children available.
			for _, v := range nodes {
				if cur[v] {
					next[v] = true
					continue
				}
				for _, u := range ev.D.Children(v) {
					if next[u] {
						next[v] = true
						break
					}
				}
			}
		}
		sc.putTable(cur)
		cur = next
	}
	return cur
}
