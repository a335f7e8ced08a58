package rxview

import (
	"time"

	"rxview/internal/bench"
	"rxview/internal/workload"
)

// This file re-exports the experiment harness that regenerates the paper's
// evaluation (§5): dataset statistics (Fig.10b), the update-performance
// series (Fig.11a–h), incremental maintenance vs recomputation (Table 1),
// and the ablations. It backs the root bench_test.go and cmd/benchrunner.

// Phases accumulates the per-phase times of Fig.11: (a) XPath evaluation,
// (b) translation + execution, (c) maintenance.
type Phases struct {
	Eval     time.Duration
	XToDV    time.Duration
	DVToDR   time.Duration
	Apply    time.Duration
	Maintain time.Duration
}

// Translate returns the (b) component.
func (p Phases) Translate() time.Duration { return p.XToDV + p.DVToDR + p.Apply }

// Total sums everything.
func (p Phases) Total() time.Duration { return p.Eval + p.Translate() + p.Maintain }

func phasesOf(p bench.Phases) Phases {
	return Phases{Eval: p.Eval, XToDV: p.XToDV, DVToDR: p.DVToDR, Apply: p.Apply, Maintain: p.Maintain}
}

// RunResult is the outcome of one workload run.
type RunResult struct {
	Size    int
	Class   WorkloadClass
	Ops     int
	Applied int
	NoOps   int
	Phases  Phases
}

// RunWorkload generates the synthetic dataset at size nc, opens it, and runs
// nops updates of the given class (deletions or insertions), accumulating
// the Fig.11 phase breakdown.
func RunWorkload(nc int, class WorkloadClass, deletes bool, nops int, seed int64) (RunResult, error) {
	res, err := bench.RunWorkload(nc, workload.Class(class), deletes, nops, seed)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Size:    res.Size,
		Class:   WorkloadClass(res.Class),
		Ops:     res.Ops,
		Applied: res.Applied,
		NoOps:   res.NoOps,
		Phases:  phasesOf(res.Phases),
	}, nil
}

// DatasetStats publishes the synthetic dataset at size nc and returns its
// Fig.10(b) statistics plus the generation + publication wall time. It is
// the one producer of a non-zero Stats.MatrixPairs: a View carries no
// reachability matrix, so |M| is computed here, by one run of Algorithm
// Reach over the published DAG.
func DatasetStats(nc int, seed int64) (Stats, time.Duration, error) {
	st, pairs, took, err := bench.DatasetStats(nc, seed)
	if err != nil {
		return Stats{}, 0, err
	}
	out := statsOf(st)
	out.MatrixPairs = pairs
	return out, took, nil
}

// SelectionPoint is one point of the Fig.11(g) sweep: runtime as a function
// of the number of nodes the update path selects.
type SelectionPoint struct {
	Targets int // requested |r[[p]]| / |Ep(r)| scale
	RP, EP  int // measured
	Del     Phases
	Ins     Phases
}

// VarySelection reproduces Fig.11(g) at fixed |C| = nc.
func VarySelection(nc int, targets []int, seed int64) ([]SelectionPoint, error) {
	pts, err := bench.VarySelection(nc, targets, seed)
	if err != nil {
		return nil, err
	}
	out := make([]SelectionPoint, len(pts))
	for i, p := range pts {
		out[i] = SelectionPoint{
			Targets: p.Targets, RP: p.RP, EP: p.EP,
			Del: phasesOf(p.Del), Ins: phasesOf(p.Ins),
		}
	}
	return out, nil
}

// SubtreePoint is one point of the Fig.11(h) sweep: runtime as a function of
// the inserted subtree size |ST(A,t)| with |r[[p]]| = |Ep(r)| = 1.
type SubtreePoint struct {
	STEdges int
	Ins     Phases
	Del     Phases
}

// VarySubtree reproduces Fig.11(h) at fixed |C| = nc.
func VarySubtree(nc int, fanouts []int, seed int64) ([]SubtreePoint, error) {
	pts, err := bench.VarySubtree(nc, fanouts, seed)
	if err != nil {
		return nil, err
	}
	out := make([]SubtreePoint, len(pts))
	for i, p := range pts {
		out[i] = SubtreePoint{STEdges: p.STEdges, Ins: phasesOf(p.Ins), Del: phasesOf(p.Del)}
	}
	return out, nil
}

// MaintenanceResult compares incremental maintenance of L and M against full
// recomputation (Table 1 of the paper). The incremental columns are the sum
// of the view's own maintenance of L and the experiment's maintenance of M
// from the commit's delta.
type MaintenanceResult struct {
	Size       int
	IncrInsert time.Duration // ∆(M,L)insert for one representative insertion
	IncrDelete time.Duration // ∆(M,L)delete for one representative deletion
	RecomputeL time.Duration
	RecomputeM time.Duration
}

// MaintenanceTable measures one point of the Table 1 comparison.
func MaintenanceTable(nc int, seed int64) (MaintenanceResult, error) {
	res, err := bench.Table1(nc, seed)
	if err != nil {
		return MaintenanceResult{}, err
	}
	return MaintenanceResult{
		Size:       res.Size,
		IncrInsert: res.IncrInsert,
		IncrDelete: res.IncrDelete,
		RecomputeL: res.RecomputeL,
		RecomputeM: res.RecomputeM,
	}, nil
}

// ReachAblation compares Algorithm Reach (Fig.4) against a per-node DFS
// transitive closure on the same DAG.
func ReachAblation(nc int, seed int64) (fig4, naive time.Duration, pairs int, err error) {
	return bench.ReachAblation(nc, seed)
}

// MatrixAblation compares the bitset representation of the reachability
// matrix M (word-level row unions) against the paper's sparse relation
// layout (per-pair map inserts) on the same synthetic DAG.
func MatrixAblation(nc int, seed int64) (bitset, sparse time.Duration, pairs int, err error) {
	return bench.MatrixAblation(nc, seed)
}

// DAGvsTree evaluates the same recursive query on the DAG compression and on
// the fully unfolded tree: the point of §2.3's compression.
func DAGvsTree(nc int, seed int64) (dagTime, treeTime time.Duration, dagNodes, treeNodes int, err error) {
	return bench.DAGvsTree(nc, seed)
}

// SideEffectAblation compares full XPath evaluation (exact side-effect
// detection) against the selection-only fast path, both by the sweep.
func SideEffectAblation(nc int, seed int64) (full, selectOnly time.Duration, err error) {
	return bench.SideEffectAblation(nc, seed)
}

// EvalStrategyAblation evaluates one recursive query three ways — the sweep
// (§3.2's two passes, exact NFA state-sets), the paper-literal frontier
// evaluator (// expanded through M), and the anchored route (the same NFA
// over the ancestor cone of the value-matched candidates) — and
// cross-checks their selections.
func EvalStrategyAblation(nc int, seed int64) (sweep, frontier, anchored time.Duration, err error) {
	return bench.EvalStrategyAblation(nc, seed)
}

// MinDeleteAblation compares the greedy and exact minimal-deletion
// algorithms (Theorem 3).
func MinDeleteAblation(nc int, seed int64) (greedyT, exactT time.Duration, greedyN, exactN int, err error) {
	return bench.MinDeleteAblation(nc, seed)
}
