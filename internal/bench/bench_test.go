package bench

// One benchmark per table/figure of the paper's evaluation (§5). Each
// reports the phase breakdown of Fig.11 as custom metrics (ms/op):
//
//	(a) eval-ms        XPath evaluation on the DAG
//	(b) translate-ms   ΔX→ΔV→ΔR translation + execution
//	(c) maintain-ms    ∆(M,L) maintenance (background in the paper)
//
// Sizes default to laptop scale; cmd/benchrunner sweeps larger sizes and
// prints paper-style tables (use -sizes up to 1000000).

import (
	"fmt"
	"testing"

	"rxview/internal/workload"
)

var benchSizes = []int{1000, 5000, 20000}

func reportPhases(b *testing.B, p Phases, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	b.ReportMetric(float64(p.Eval.Microseconds())/1000/n, "eval-ms")
	b.ReportMetric(float64(p.Translate().Microseconds())/1000/n, "translate-ms")
	b.ReportMetric(float64(p.Maintain.Microseconds())/1000/n, "maintain-ms")
}

// BenchmarkFig10bStats regenerates the dataset statistics of Fig.10(b).
func BenchmarkFig10bStats(b *testing.B) {
	for _, nc := range benchSizes {
		b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, _, pairs, _, err := DatasetStats(nc, 42)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(st.Nodes), "dag-nodes")
					b.ReportMetric(st.TreeSize, "tree-nodes")
					b.ReportMetric(float64(pairs), "M-pairs")
					b.ReportMetric(100*st.SharedFrac, "shared-pct")
				}
			}
		})
	}
}

func benchWorkload(b *testing.B, deletes bool) {
	for _, nc := range benchSizes {
		for _, class := range []workload.Class{workload.W1, workload.W2, workload.W3} {
			b.Run(fmt.Sprintf("C=%d/%s", nc, class), func(b *testing.B) {
				var last RunResult
				for i := 0; i < b.N; i++ {
					res, err := RunWorkload(nc, class, deletes, 5, int64(42+i))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				reportPhases(b, last.Phases, last.Ops)
			})
		}
	}
}

// BenchmarkFig11Delete regenerates Fig.11(a)–(c): deletion cost per workload
// class as the database grows.
func BenchmarkFig11Delete(b *testing.B) { benchWorkload(b, true) }

// BenchmarkFig11Insert regenerates Fig.11(d)–(f): insertion cost per
// workload class as the database grows.
func BenchmarkFig11Insert(b *testing.B) { benchWorkload(b, false) }

// BenchmarkFig11gVarySelection regenerates Fig.11(g): runtime as a function
// of |r[[p]]| / |Ep(r)| at fixed |C|.
func BenchmarkFig11gVarySelection(b *testing.B) {
	nc := benchSizes[len(benchSizes)-1]
	for _, target := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("targets=%d", target), func(b *testing.B) {
			var pts []SelResult
			for i := 0; i < b.N; i++ {
				out, err := VarySelection(nc, []int{target}, int64(42+i))
				if err != nil {
					b.Fatal(err)
				}
				pts = out
			}
			p := pts[0]
			b.ReportMetric(float64(p.EP), "Ep-edges")
			b.ReportMetric(float64(p.Del.DVToDR.Microseconds())/1000, "delete-ms")
			b.ReportMetric(float64(p.Ins.DVToDR.Microseconds())/1000, "insert-ms")
			b.ReportMetric(float64(p.Del.Maintain.Microseconds())/1000, "maintainDel-ms")
			b.ReportMetric(float64(p.Ins.Maintain.Microseconds())/1000, "maintainIns-ms")
		})
	}
}

// BenchmarkFig11hVarySubtree regenerates Fig.11(h): runtime as a function of
// |ST(A,t)| with |r[[p]]| = |Ep(r)| = 1.
func BenchmarkFig11hVarySubtree(b *testing.B) {
	nc := benchSizes[len(benchSizes)-1]
	for _, fanout := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			var pts []SubtreeResult
			for i := 0; i < b.N; i++ {
				out, err := VarySubtree(nc, []int{fanout}, int64(42+i))
				if err != nil {
					b.Fatal(err)
				}
				pts = out
			}
			p := pts[0]
			b.ReportMetric(float64(p.STEdges), "ST-edges")
			b.ReportMetric(float64(p.Ins.XToDV.Microseconds())/1000, "Xinsert-ms")
			b.ReportMetric(float64(p.Ins.Maintain.Microseconds())/1000, "maintainIns-ms")
			b.ReportMetric(float64(p.Del.Maintain.Microseconds())/1000, "maintainDel-ms")
		})
	}
}

// BenchmarkTable1Incremental regenerates Table 1: incremental maintenance of
// L and M vs recomputation.
func BenchmarkTable1Incremental(b *testing.B) {
	for _, nc := range benchSizes {
		b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
			var last Table1Result
			for i := 0; i < b.N; i++ {
				res, err := Table1(nc, int64(42+i))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.IncrInsert.Microseconds())/1000, "incrIns-ms")
			b.ReportMetric(float64(last.IncrDelete.Microseconds())/1000, "incrDel-ms")
			b.ReportMetric(float64(last.RecomputeL.Microseconds())/1000, "recompL-ms")
			b.ReportMetric(float64(last.RecomputeM.Microseconds())/1000, "recompM-ms")
		})
	}
}

// BenchmarkAblationReachVsNaive compares Algorithm Reach (Fig.4) with a
// per-node DFS transitive closure.
func BenchmarkAblationReachVsNaive(b *testing.B) {
	nc := benchSizes[0]
	b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fig4, naive, _, err := ReachAblation(nc, 42)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(fig4.Microseconds())/1000, "reach-ms")
				b.ReportMetric(float64(naive.Microseconds())/1000, "naive-ms")
			}
		}
	})
}

// BenchmarkAblationMatrixRepresentation compares building M with bitset rows
// (word-level unions) against the sparse relation layout (per-pair map
// inserts) on the synthetic DAG.
func BenchmarkAblationMatrixRepresentation(b *testing.B) {
	nc := benchSizes[0]
	b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitset, sparse, pairs, err := MatrixAblation(nc, 42)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(bitset.Microseconds())/1000, "bitset-ms")
				b.ReportMetric(float64(sparse.Microseconds())/1000, "sparse-ms")
				b.ReportMetric(float64(pairs), "M-pairs")
			}
		}
	})
}

// BenchmarkAblationDAGvsTree compares XPath evaluation on the DAG
// compression against the unfolded tree (§2.3's motivation).
func BenchmarkAblationDAGvsTree(b *testing.B) {
	nc := benchSizes[0]
	b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dagT, treeT, dagN, treeN, err := DAGvsTree(nc, 42)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(dagT.Microseconds())/1000, "dag-ms")
				b.ReportMetric(float64(treeT.Microseconds())/1000, "tree-ms")
				b.ReportMetric(float64(treeN)/float64(dagN), "blowup-x")
			}
		}
	})
}

// BenchmarkAblationGreedyVsExactMinDelete compares the greedy and exact
// minimal-deletion algorithms (Theorem 3).
func BenchmarkAblationGreedyVsExactMinDelete(b *testing.B) {
	nc := benchSizes[0]
	b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gT, eT, _, _, err := MinDeleteAblation(nc, 42)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(gT.Microseconds())/1000, "greedy-ms")
				b.ReportMetric(float64(eT.Microseconds())/1000, "exact-ms")
			}
		}
	})
}

// BenchmarkAblationSideEffectDetection compares full evaluation (exact
// side-effect detection) against the selection-only fast path.
func BenchmarkAblationSideEffectDetection(b *testing.B) {
	nc := benchSizes[0]
	b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			full, fast, err := SideEffectAblation(nc, 42)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(full.Microseconds())/1000, "full-ms")
				b.ReportMetric(float64(fast.Microseconds())/1000, "selectOnly-ms")
			}
		}
	})
}

// BenchmarkAblationEvalStrategy compares the sweep (exact NFA state-sets
// over the whole view), the paper-literal frontier evaluator (// expanded
// through M) and the anchored route on the same path.
func BenchmarkAblationEvalStrategy(b *testing.B) {
	nc := benchSizes[0]
	b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep, frontier, anchored, err := EvalStrategyAblation(nc, 42)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(sweep.Microseconds())/1000, "sweep-ms")
				b.ReportMetric(float64(frontier.Microseconds())/1000, "frontierM-ms")
				b.ReportMetric(float64(anchored.Microseconds())/1000, "anchored-ms")
			}
		}
	})
}
