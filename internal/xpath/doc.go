// Package xpath implements the XPath fragment of the paper (§2.1):
//
//	p ::= ε | A | * | // | p/p | p[q]
//	q ::= p | p = "s" | label() = A | q ∧ q | q ∨ q | ¬q
//
// and its evaluation over DAG-compressed XML views stored with package dag:
// the selected node set r[[p]], the parent-edge set Ep(r), and the
// side-effect witnesses S.
//
// # One propagation, three routes
//
// A path is normalized to η1/…/ηn (normal.go) and run as an NFA over
// root-to-node paths. Every node accumulates the set of distinct NFA
// state-sets its tree occurrences arrive with — a function of its parents'
// sets and of node-local tests (the node's label, and whether each ε[q]
// filter holds at it). A node is selected iff some occurrence accepts, and
// an update there has side effects iff another does not: the paper's
// tree-unfolding semantics, computed on the DAG without unfolding it.
// Distinct state-sets per node are capped (Evaluator.MaskLimit); past the
// cap they collapse to their union, which keeps r[[p]] and Ep(r) exact,
// makes the witnesses conservative, and raises Result.Overflow.
//
// That propagation (type run in eval.go: move, closure, addMask, push,
// collect) is written once. Three routes drive it, and differ only in which
// nodes they visit and where filter truth comes from:
//
//   - The sweep (Evaluator.EvalSweep) is §3.2's algorithm in O(|p|·|V|): a
//     bottom-up pass fills one truth table per filter sub-expression,
//     children first, with the desc(q,·) recurrence for //; a top-down pass
//     propagates over every node the root reaches, ancestors first. §3.2
//     runs both passes along the topological order L; no view keeps one, so
//     the sweep orders the nodes itself, by a depth-first walk from the
//     root (Evaluator.order) — the nodes the root does not reach, which only
//     an open transaction holds, are ones no pass needs.
//   - The anchored route (anchored.go) starts from the path's value filter.
//     The filter names the few nodes that can matter and the DAG's Parents
//     lists name everything that can reach them: it finds the nodes the
//     filter can hold at — by Evaluator.Seeds, which on the live view is a
//     lookup in the Skolem registry gen_id (§2.3), or else by a scan of the
//     per-type node list — walks down the remaining steps to a candidate
//     superset X ⊇ r[[p]], climbs from X into its ancestor cone — only as
//     far as the path's window, when it has one — and propagates over the
//     cone only, in Kahn's order, deciding filters pointwise from each
//     node's children.
//   - The down route (down.go) answers reads of //-led anchored paths. It
//     keeps the anchor nodes whose label and filters admit them and which
//     the root reaches, and propagates from them downward only, with one
//     union mask per node and no cone.
//
// # Which route a path takes
//
// Evaluator.Eval and EvalSelect decide from the compiled path alone
// (Result.Route names the route taken; no option, no threshold, nothing
// about the view): anchored
// iff, on the normalized steps, some ε[q] has a top-level conjunct
// l1/…/lk = "s" — a pure child-label chain, k ≥ 1 — and no filter anywhere
// on the path contains //. The first such ε[q] is the anchor. Every path of
// the paper's W1/W2/W3 classes qualifies, as does any path that names a key
// or a value; //C, C/sub/C, [a or b], [not(a="s")], [.="s"] and [.//a="s"]
// are swept. // inside a filter rules the route out because pointwise
// evaluation would have to search below the node — bottom-up tables are the
// right algorithm for that. There is no switch back to the sweep on large
// cones: a cone that is the whole view costs about what the sweep costs, as
// filters are still decided once per (step, node).
//
// EvalSelect takes the down route instead of the cone when the anchored
// path's normal form is //, then one label or * step, then ε steps up to
// the anchor: //C[key="r"]/sub/C and //C[val="v"], every read bench/
// sends. .//C[key="r"] and C[key="r"]/sub keep the cone. Eval never takes it: the
// witnesses an update needs are read off every occurrence of a node.
//
// # Why the anchored route is exact
//
// Entering the state after an ε[q] step requires q to hold at the node, so
// every accepting root path crosses the anchor step at a node of
// A ⊇ {v : q holds at v}, and ends, the remaining steps later, in X.
// State-sets at a node depend only on its parents' sets and on node-local
// tests. Selected, Edges, InsertWitnesses and DeleteWitnesses only read the
// sets of X and what its parents' sets move into X.
//
// A path with a // after its first step has no window: its cone is closed
// under Parents, so every root path to a cone node lies inside the cone,
// and by induction along any topological order of the cone each cone node
// gets exactly the sets the sweep gives it.
//
// The window lemma. Let the normal form have no // after its first step and
// n child steps. Every edge a run crosses consumes one child step, except in
// the leading //'s own state 0, which a run keeps as long as it likes. A
// node's level ℓ is its distance to X, and a state that has consumed c child
// steps can still accept at a node of level ℓ only if n−c ≥ ℓ: it is live
// there (state 0 is live everywhere). The cone stops at level w = max(n,1),
// so the parents of X are in it, and only a node of level w can have a
// parent outside it. Take a root path π to a cone node v, and the last node
// u on π outside the cone. π enters the cone at some t of level w, and a
// child is at most one level below its parent, so π crosses at least w−ℓ+1
// edges from u to v (ℓ is v's level). A run not in state 0 when it leaves u
// consumes a child step on each of them, more than n−ℓ in all, and is dead
// at v; the runs still in state 0 are those the entry at t, move({0}, t),
// starts. A rooted path has no such state: its entry is the empty set, an
// occurrence of t that no run reaches. An outside parent the root does not
// reach carries no set in the sweep and gives no entry. So, by induction
// along Kahn's order of the cone, each cone node gets exactly the sweep's
// sets with their dead states dropped — the route trims every set to the
// live states of its node's level (plan.live). At X every state is live, and
// a dead state only ever moves into dead states, so the four result fields
// are the sweep's. No filter is decided at a node outside the cone, whose
// pointwise truth is stale. The differential tests and FuzzEvalRoutesAgree
// hold the routes to each other and to the unfolded-tree oracle.
//
// The one intended difference: Overflow is raised only if a cone node
// exceeds MaskLimit. A collapse in some unrelated corner of the view no
// longer makes an update "conservatively side-effecting". A cone node's
// trimmed sets are a function of the sweep's sets at it, so it never holds
// more distinct ones than the sweep does: anchored Overflow implies sweep
// Overflow, never the reverse. Untrimmed, the entries could split one of
// the sweep's sets into two that differ in dead states only.
//
// # Why the down route is exact
//
// It computes r[[p]] only. Every accepting root path crosses the anchor
// step at some a ∈ A, as above. The prefix before the anchor is //, then
// steps[1], then ε steps, so it accepts a root path into a iff a is
// reachable from the root, is not the root, has steps[1]'s label, and
// every filter of those ε steps holds at a: those are the nodes A′ the
// route starts from. From a on, an accepting path is a run of the NFA
// begun in the state after the anchor, which is exactly what the
// propagation from A′ computes, union masks being exact for selection
// (transitions are bit-linear). It sees only the paths that start in A′,
// not every occurrence of a node, so it yields no Ep(r) and no witnesses:
// select-only results carry neither on any route.
//
// The paper-literal strategy — per-step node sets, // expanded through the
// reachability matrix M — is internal/paper's FrontierEvaluator, which no
// serving path links. It reads the sweep's filter tables through
// Evaluator.StepFilters, the one thing this package exports for it.
package xpath
