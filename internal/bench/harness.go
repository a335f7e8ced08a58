// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5): the dataset statistics of
// Fig.10(b), the update-performance series of Fig.11(a)–(h), the
// incremental-vs-recomputation comparison of Table 1, and the ablations.
// bench_test.go (testing.B entry points) and cmd/benchrunner (paper-style
// tables) are its only callers; the internalboundary analyzer keeps it out
// of every other package's imports. What the paper times beside the serving
// path — L, M, ∆(M,L), Algorithm Reach, the frontier evaluator — is
// internal/paper's.
package bench

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rxview/internal/core"
	"rxview/internal/dag"
	"rxview/internal/paper"
	"rxview/internal/relational"
	"rxview/internal/update"
	"rxview/internal/viewupdate"
	"rxview/internal/workload"
	"rxview/internal/xpath"
)

// Phases accumulates the per-phase times of Fig.11: (a) XPath evaluation,
// (b) translation + execution, (c) maintenance.
type Phases struct {
	Eval     time.Duration
	XToDV    time.Duration
	DVToDR   time.Duration
	Apply    time.Duration
	Maintain time.Duration
}

func (p *Phases) add(t core.Timings) {
	p.Eval += t.Eval
	p.XToDV += t.XToDV
	p.DVToDR += t.DVToDR
	p.Apply += t.Apply
	p.Maintain += t.Maintain
}

// Translate returns the (b) component.
func (p Phases) Translate() time.Duration { return p.XToDV + p.DVToDR + p.Apply }

// Total sums everything.
func (p Phases) Total() time.Duration { return p.Eval + p.Translate() + p.Maintain }

// RunResult is the outcome of one workload run.
type RunResult struct {
	Size    int
	Class   workload.Class
	Ops     int
	Applied int
	NoOps   int
	Phases  Phases
}

// NewSystem generates the synthetic dataset at size nc and opens it.
func NewSystem(nc int, seed int64) (*workload.Synthetic, *core.System, error) {
	syn, err := workload.NewSynthetic(workload.SyntheticConfig{NC: nc, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	sys, err := openSystem(syn, syn.DB)
	return syn, sys, err
}

func openSystem(syn *workload.Synthetic, db *relational.Database) (*core.System, error) {
	return core.Open(syn.ATG, db, core.Options{ForceSideEffects: true})
}

// paperView is a system under experiment together with the topological
// order L and the reachability matrix M that the paper maintains. The system
// itself carries neither (no evaluator that serves reads them; see package
// core), so the experiments hold their own: L computed and M built by
// Algorithm Reach, then both kept exact from the DAG delta of each commit,
// which an in-memory commit sink taps. ∆(M,L)delete's garbage collection
// runs inside the system, L's and M's halves here, and phase (c) of Fig.11
// and the incremental columns of Table 1 report the sum.
type paperView struct {
	sys   *core.System
	topo  *paper.Topo
	m     *paper.Matrix
	delta []dag.DeltaOp // of the commits since L and M were last brought up to date
}

func newPaperView(sys *core.System) *paperView {
	topo := paper.ComputeTopo(sys.DAG)
	v := &paperView{sys: sys, topo: topo, m: paper.Compute(sys.DAG, topo)}
	sys.SetCommitSink(func(recs []core.CommitRecord) error {
		for _, r := range recs {
			v.delta = append(v.delta, r.Delta...)
		}
		return nil
	}, nil)
	return v
}

// evaluator returns an XPath evaluator over the system's live view, for the
// experiments that time evaluation on its own.
func evaluator(sys *core.System) *xpath.Evaluator {
	return &xpath.Evaluator{
		D:          sys.DAG,
		Text:       sys.ATG.Text(sys.DAG),
		TextEquals: sys.ATG.TextEquals(sys.DAG),
	}
}

// execute applies one update statement and reports its phases as Fig.11
// defines them: phase (a) is §3.2's O(|p|·|V|) evaluation, so it is timed on
// the sweep, called by name on the pre-update view, whatever route the
// serving pipeline took for the same path; phase (c) is the system's
// garbage collection plus ∆(M,L) for L and M, applied here from the commit's
// delta.
func (v *paperView) execute(stmt string) (*core.Report, error) {
	op, err := update.ParseStatement(v.sys.ATG, stmt)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := evaluator(v.sys).EvalSweep(op.Path); err != nil {
		return nil, err
	}
	sweep := time.Since(t0)
	rep, err := v.sys.Apply(op)
	if rep != nil {
		rep.Timings.Eval = sweep
		t0 = time.Now()
		v.topo.ApplyDelta(v.sys.DAG, v.delta)
		v.m.ApplyDelta(v.sys.DAG, v.topo, v.delta)
		rep.Timings.Maintain += time.Since(t0)
		v.delta = v.delta[:0]
	}
	return rep, err
}

// RunWorkload executes a delete or insert workload of the given class on a
// fresh system and accumulates the phase breakdown (Fig.11(a)–(f)).
func RunWorkload(nc int, class workload.Class, deletes bool, nops int, seed int64) (RunResult, error) {
	syn, sys, err := NewSystem(nc, seed)
	if err != nil {
		return RunResult{}, err
	}
	v := newPaperView(sys)
	var ops []workload.Op
	if deletes {
		ops = syn.DeleteWorkload(class, nops, seed+100)
	} else {
		ops = syn.InsertWorkload(class, nops, seed+200)
	}
	res := RunResult{Size: nc, Class: class, Ops: len(ops)}
	for _, op := range ops {
		rep, err := v.execute(op.Stmt)
		if err != nil {
			return res, fmt.Errorf("%s: %w", op.Stmt, err)
		}
		if rep.Applied {
			res.Applied++
		} else {
			res.NoOps++
		}
		res.Phases.add(rep.Timings)
	}
	return res, nil
}

// DatasetStats generates the dataset and reports the Fig.10(b) statistics —
// the view's own plus |L| and |M|, for which L is computed and Algorithm
// Reach runs once here — and the generation and publication wall time, L
// and Reach included.
func DatasetStats(nc int, seed int64) (st core.Stats, topoLen, matrixPairs int, took time.Duration, err error) {
	t0 := time.Now()
	_, sys, err := NewSystem(nc, seed)
	if err != nil {
		return core.Stats{}, 0, 0, 0, err
	}
	topo := paper.ComputeTopo(sys.DAG)
	matrixPairs = paper.Compute(sys.DAG, topo).Size()
	return sys.Stats(), topo.Len(), matrixPairs, time.Since(t0), nil
}

// SelResult is one point of the Fig.11(g) sweep.
type SelResult struct {
	Targets int // requested |r[[p]]| / |Ep(r)| scale
	RP, EP  int // measured
	Del     Phases
	Ins     Phases
}

// VarySelection reproduces Fig.11(g): fix |C| and vary the number of nodes
// selected by the update path (and hence |r[[p]]| for insertions and
// |Ep(r)| for deletions), keeping the subtree ST(A,t) a single fresh C.
// Each point targets exactly `target` published C nodes through a
// disjunctive key filter //C[key=k1 or key=k2 or ...].
func VarySelection(nc int, targets []int, seed int64) ([]SelResult, error) {
	syn, sys, err := NewSystem(nc, seed)
	if err != nil {
		return nil, err
	}
	// Deepest-first published keys make good targets (small subtrees).
	var keys []int64
	ids := sys.DAG.NodesOfType("C")
	for i := len(ids) - 1; i >= 0 && len(keys) < 256; i-- {
		keys = append(keys, sys.DAG.Attr(ids[i])[0].I)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })

	pathFor := func(k int) string {
		var b []string
		for i := 0; i < k && i < len(keys); i++ {
			b = append(b, fmt.Sprintf(`key="%d"`, keys[i]))
		}
		return fmt.Sprintf("//C[%s]", joinOr(b))
	}

	var out []SelResult
	for _, k := range targets {
		sr := SelResult{Targets: k}
		path := pathFor(k)

		// Deletion on a fresh clone.
		delSys, err := openSystem(syn, syn.DB.Clone())
		if err != nil {
			return nil, err
		}
		rep, err := newPaperView(delSys).execute("delete " + path)
		if err != nil {
			return nil, err
		}
		sr.RP, sr.EP = rep.RP, rep.EP
		sr.Del.add(rep.Timings)

		// Insertion on a fresh clone.
		insSys, err := openSystem(syn, syn.DB.Clone())
		if err != nil {
			return nil, err
		}
		key := syn.NextKey
		syn.NextKey++
		rep, err = newPaperView(insSys).execute(fmt.Sprintf(
			`insert C(c1=%d, c6="w%d") into %s/sub`, key, key, path))
		if err != nil {
			return nil, err
		}
		sr.Ins.add(rep.Timings)
		out = append(out, sr)
	}
	return out, nil
}

func joinOr(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " or "
		}
		out += p
	}
	return out
}

// SubtreeResult is one point of the Fig.11(h) sweep.
type SubtreeResult struct {
	STEdges int // edges of the inserted subtree ST(A,t)
	Ins     Phases
	Del     Phases
}

// VarySubtree reproduces Fig.11(h): |Ep(r)| = |r[[p]]| = 1 while the size of
// the inserted subtree ST(A,t) varies. Fresh keys are pre-linked (via H
// rows) to existing leaf-level subtrees before publication, so the inserted
// C brings a subtree of the requested breadth.
func VarySubtree(nc int, fanouts []int, seed int64) ([]SubtreeResult, error) {
	syn, err := workload.NewSynthetic(workload.SyntheticConfig{NC: nc, Seed: seed})
	if err != nil {
		return nil, err
	}
	// Deepest-level keys (largest) serve as ready-made children.
	leaves := make([]int64, 0, 64)
	for k := int64(nc); k > 0 && len(leaves) < 64; k-- {
		if syn.Pass[k] {
			leaves = append(leaves, k)
		}
	}
	// One fresh key per sweep point, pre-linked to `fanout` leaves.
	keys := make([]int64, len(fanouts))
	for i, f := range fanouts {
		key := syn.NextKey
		syn.NextKey++
		keys[i] = key
		for j := 0; j < f && j < len(leaves); j++ {
			if err := syn.DB.Insert("H", relational.Tuple{
				relational.Int(key), relational.Int(leaves[j]),
			}); err != nil {
				return nil, err
			}
		}
	}
	// A single-occurrence target: a published root (db is its only parent).
	target := syn.Roots[0]

	var out []SubtreeResult
	for i, f := range fanouts {
		sys, err := openSystem(syn, syn.DB.Clone())
		if err != nil {
			return nil, err
		}
		v := newPaperView(sys)
		sr := SubtreeResult{}
		rep, err := v.execute(fmt.Sprintf(
			`insert C(c1=%d, c6="big%d") into //C[key="%d"]/sub`, keys[i], keys[i], target))
		if err != nil {
			return nil, fmt.Errorf("fanout %d: %w", f, err)
		}
		sr.STEdges = rep.DVInserts
		sr.Ins.add(rep.Timings)

		// Matching deletion: remove the just-inserted subtree again
		// (|Ep| = 1; the subtree cascades in maintenance).
		rep, err = v.execute(fmt.Sprintf(
			`delete //C[key="%d"]/sub/C[key="%d"]`, target, keys[i]))
		if err != nil {
			return nil, err
		}
		sr.Del.add(rep.Timings)
		out = append(out, sr)
	}
	return out, nil
}

// Table1Result compares incremental maintenance of L and M against full
// recomputation (Table 1 of the paper).
type Table1Result struct {
	Size       int
	IncrInsert time.Duration // ∆(M,L)insert for one representative insertion
	IncrDelete time.Duration // ∆(M,L)delete for one representative deletion
	RecomputeL time.Duration
	RecomputeM time.Duration
}

// Table1 measures one point of the comparison.
func Table1(nc int, seed int64) (Table1Result, error) {
	syn, sys, err := NewSystem(nc, seed)
	if err != nil {
		return Table1Result{}, err
	}
	res := Table1Result{Size: nc}
	v := newPaperView(sys)

	// Single-edge (W2) operations: Table 1 compares the per-update
	// maintenance cost against recomputing L and M from scratch.
	ins := syn.InsertWorkload(workload.W2, 1, seed+1)
	rep, err := v.execute(ins[0].Stmt)
	if err != nil {
		return res, err
	}
	res.IncrInsert = rep.Timings.Maintain

	del := syn.DeleteWorkload(workload.W2, 1, seed+2)
	rep, err = v.execute(del[0].Stmt)
	if err != nil {
		return res, err
	}
	res.IncrDelete = rep.Timings.Maintain

	t0 := time.Now()
	topo := paper.ComputeTopo(sys.DAG)
	res.RecomputeL = time.Since(t0)
	t0 = time.Now()
	paper.Compute(sys.DAG, topo)
	res.RecomputeM = time.Since(t0)
	return res, nil
}

// ReachAblation compares Algorithm Reach (Fig.4) against the per-node DFS
// baseline on the same DAG.
func ReachAblation(nc int, seed int64) (fig4, naive time.Duration, pairs int, err error) {
	_, sys, err := NewSystem(nc, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	topo := paper.ComputeTopo(sys.DAG)
	t0 := time.Now()
	m := paper.Compute(sys.DAG, topo)
	fig4 = time.Since(t0)
	t0 = time.Now()
	m2 := paper.ComputeNaive(sys.DAG)
	naive = time.Since(t0)
	if !m.Equal(m2) {
		return 0, 0, 0, fmt.Errorf("bench: Reach implementations disagree")
	}
	return fig4, naive, m.Size(), nil
}

// MatrixAblation compares the two representations of the reachability
// matrix on the synthetic DAG: the production bitset rows (word-level row
// unions) against the sparse relation layout the paper describes (per-pair
// map inserts). Both sides run the same Algorithm Reach dynamic program over
// the same precomputed L, so the gap isolates the representation alone.
// Pairs is |M|; the ≥2× gap is the PR-2 tentpole's headline.
func MatrixAblation(nc int, seed int64) (bitset, sparse time.Duration, pairs int, err error) {
	_, sys, err := NewSystem(nc, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	topo := paper.ComputeTopo(sys.DAG)
	t0 := time.Now()
	m := paper.Compute(sys.DAG, topo)
	bitset = time.Since(t0)
	t0 = time.Now()
	sp := paper.ComputeSparseReach(sys.DAG, topo)
	sparse = time.Since(t0)
	if !m.EqualSparse(sp) {
		return 0, 0, 0, fmt.Errorf("bench: matrix representations disagree: %s", m.DiffSparse(sp))
	}
	return bitset, sparse, m.Size(), nil
}

// DAGvsTree evaluates the same recursive query on the DAG compression and on
// the fully unfolded tree (materialized as an unshared DAG): the point of
// §2.3's compression. Both sides run §3.2's sweep, whose cost is the size of
// what it is given.
func DAGvsTree(nc int, seed int64) (dagTime, treeTime time.Duration, dagNodes, treeNodes int, err error) {
	syn, sys, err := NewSystem(nc, seed)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	_ = syn
	path := xpath.MustParse(`//C[val="v3"]//C[sub/C]`)

	t0 := time.Now()
	if _, err := evaluator(sys).EvalSweep(path); err != nil {
		return 0, 0, 0, 0, err
	}
	dagTime = time.Since(t0)
	dagNodes = sys.DAG.NumNodes()

	tree, n, err := unfoldToTreeDAG(sys.DAG, 2_000_000)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	treeNodes = n
	// Text for the tree copies: attr layout is (original attr..., occ),
	// and PCDATA types render their first field, so reuse position 0.
	treeText := func(id dag.NodeID) (string, bool) {
		typ := tree.Type(id)
		if typ == "key" || typ == "val" || typ == "item" {
			a := tree.Attr(id)
			return a[0].String(), true
		}
		return "", false
	}
	evTree := &xpath.Evaluator{D: tree, Text: treeText}
	t0 = time.Now()
	if _, err := evTree.EvalSweep(path); err != nil {
		return 0, 0, 0, 0, err
	}
	treeTime = time.Since(t0)
	return dagTime, treeTime, dagNodes, treeNodes, nil
}

// unfoldToTreeDAG materializes the tree view as a DAG without sharing: every
// occurrence becomes a distinct node (attr extended with an occurrence id).
func unfoldToTreeDAG(d *dag.DAG, budget int) (*dag.DAG, int, error) {
	out := dag.New(d.Type(d.Root()))
	count := 1
	occ := int64(0)
	var copyTree func(src dag.NodeID, dstParent dag.NodeID) error
	copyTree = func(src dag.NodeID, dstParent dag.NodeID) error {
		for _, c := range d.Children(src) {
			if count >= budget {
				return dag.ErrTreeTooLarge
			}
			occ++
			attr := append(d.Attr(c).Clone(), relational.Int(occ))
			id, _ := out.AddNode(d.Type(c), attr)
			out.AddEdge(dstParent, id)
			count++
			if err := copyTree(c, id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := copyTree(d.Root(), out.Root()); err != nil {
		return nil, 0, err
	}
	return out, count, nil
}

// SideEffectAblation compares full evaluation (exact side-effect detection
// via per-path state-sets) against the selection-only union-mask fast path
// on the same recursive query, both by the sweep — the cost of the paper's
// side-effect analysis on top of plain selection over the whole view.
func SideEffectAblation(nc int, seed int64) (full, selectOnly time.Duration, err error) {
	_, sys, err := NewSystem(nc, seed)
	if err != nil {
		return 0, 0, err
	}
	path := xpath.MustParse(`//C[val="v1"]//C[sub/C]`)
	ev := evaluator(sys)
	t0 := time.Now()
	fullRes, err := ev.EvalSweep(path)
	if err != nil {
		return 0, 0, err
	}
	full = time.Since(t0)
	t0 = time.Now()
	fastRes, err := ev.EvalSelectSweep(path)
	if err != nil {
		return 0, 0, err
	}
	selectOnly = time.Since(t0)
	if !slices.Equal(fullRes.Selected, fastRes.Selected) {
		return 0, 0, fmt.Errorf("bench: selection disagreement between EvalSweep and EvalSelectSweep")
	}
	return full, selectOnly, nil
}

// EvalStrategyAblation evaluates one recursive query three ways: the sweep
// (NFA state-sets over every node the root reaches, exact side effects), the paper-literal
// frontier evaluator (per-step Ci sets, // expanded through the reachability
// matrix M), and the anchored route (the same NFA over the ancestor cone of
// the value-matched candidates). The three selections are cross-checked.
func EvalStrategyAblation(nc int, seed int64) (sweep, frontier, anchored time.Duration, err error) {
	_, sys, err := NewSystem(nc, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	path := xpath.MustParse(`//C[val="v1"]//C[sub/C]`)
	ev := evaluator(sys)
	topo := paper.ComputeTopo(sys.DAG)
	fe := &paper.FrontierEvaluator{D: sys.DAG, Topo: topo, Matrix: paper.Compute(sys.DAG, topo), Text: ev.Text}

	timed := func(eval func(*xpath.Path) (*xpath.Result, error)) (*xpath.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := eval(path)
		return res, time.Since(t0), err
	}
	a, sweep, err := timed(ev.EvalSweep)
	if err != nil {
		return 0, 0, 0, err
	}
	b, frontier, err := timed(fe.Eval)
	if err != nil {
		return 0, 0, 0, err
	}
	c, anchored, err := timed(ev.Eval)
	if err != nil {
		return 0, 0, 0, err
	}
	if c.Route != xpath.RouteAnchored {
		return 0, 0, 0, fmt.Errorf("bench: %s took the %s route", path, c.Route)
	}
	if !slices.Equal(a.Selected, b.Selected) || !slices.Equal(a.Selected, c.Selected) {
		return 0, 0, 0, fmt.Errorf("bench: evaluators disagree on selection")
	}
	return sweep, frontier, anchored, nil
}

// MinDeleteAblation times the greedy vs exact minimal-deletion algorithms on
// a group deletion (Theorem 3's tractability gap in practice).
func MinDeleteAblation(nc int, seed int64) (greedyT, exactT time.Duration, greedyN, exactN int, err error) {
	_, sys, err := NewSystem(nc, seed)
	if err != nil {
		return
	}
	// Group-delete every edge into the children of the first root's sub.
	var dv []dag.Edge
	for _, id := range sys.DAG.NodesOfType("sub") {
		for _, c := range sys.DAG.Children(id) {
			dv = append(dv, dag.Edge{Parent: id, Child: c})
			if len(dv) >= 14 {
				break
			}
		}
		if len(dv) >= 14 {
			break
		}
	}
	m, err := viewupdate.NewMinimalDelete(sys.Translator, dv)
	if err != nil {
		return
	}
	t0 := time.Now()
	g, err := m.Greedy()
	if err != nil {
		return
	}
	greedyT = time.Since(t0)
	t0 = time.Now()
	e, err := m.Exact()
	if err != nil {
		return
	}
	exactT = time.Since(t0)
	return greedyT, exactT, len(g), len(e), nil
}
