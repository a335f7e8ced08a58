// benchrunner regenerates the tables and figures of the paper's evaluation
// (§5) as text tables: Fig.10(b) dataset statistics, Fig.11(a)–(f) update
// performance per workload class, Fig.11(g)–(h) sensitivity sweeps, Table 1
// (incremental maintenance vs recomputation), and the ablations.
//
// Usage:
//
//	benchrunner -exp all -sizes 1000,5000,20000 -ops 10
//
// The perf experiment additionally measures end-to-end ns/op for the four
// hot paths (query, apply, batch, maintain) and, with -json, writes them to
// a machine-readable file (CI stores BENCH_PR2.json per run, accumulating
// the perf trajectory):
//
//	benchrunner -exp perf -sizes 1000 -json BENCH_PR2.json
//
// The serve experiment drives the concurrent serving subsystem (readers
// against snapshots, a background writer through the apply loop) and, with
// -json, writes BENCH_PR3.json:
//
//	benchrunner -exp serve -sizes 1000 -dur 500ms -json BENCH_PR3.json
//
// The snapshot experiment measures epoch publication (copy-on-write seal
// vs full clone), write throughput under per-write publication, and
// served-query cache hit/miss latency, writing BENCH_PR4.json:
//
//	benchrunner -exp snapshot -sizes 250,2500,25000 -json BENCH_PR4.json
//
// The tx experiment compares an atomic Tx.Commit of k inserts against the
// same k as sequential Applies and as one non-atomic Batch, writing
// BENCH_PR5.json:
//
//	benchrunner -exp tx -sizes 250,2500,25000 -json BENCH_PR5.json
//
// The wal experiment prices durability: per-update commit latency at each
// fsync policy vs the in-memory baseline, and recovery time vs log length,
// writing BENCH_PR7.json:
//
//	benchrunner -exp wal -sizes 250,2500 -json BENCH_PR7.json
//
// The obs experiment prices the telemetry subsystem: query and commit
// ns/op with instrumentation live vs stripped (obs.SetEnabled(false)),
// writing BENCH_PR8.json; the budget is ≤ 3% overhead on both paths:
//
//	benchrunner -exp obs -sizes 1000 -json BENCH_PR8.json
//
// The chaos experiment prices the resilience layer: shed rate and read
// tail latency with the apply loop pinned by injected slow I/O and a
// writer pool flooding the admission queue, plus the degraded→read-write
// recovery time, writing BENCH_PR9.json:
//
//	benchrunner -exp chaos -sizes 1000 -dur 500ms -json BENCH_PR9.json
//
// The repl experiment prices the replication subsystem: cold-follower
// catch-up rate through the change-log stream, steady-state lag p99 under
// write churn, and aggregate read throughput at 1/2/4 followers (writes
// submitted to a follower and 421-redirected to the primary), writing
// BENCH_PR10.json:
//
//	benchrunner -exp repl -sizes 1000 -dur 500ms -json BENCH_PR10.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"rxview"
)

var (
	expFlag  = flag.String("exp", "all", "experiment: all|fig10b|fig11del|fig11ins|fig11g|fig11h|table1|ablation|perf|serve|snapshot|tx|wal|obs|chaos|repl")
	sizesStr = flag.String("sizes", "1000,5000,20000", "comma-separated |C| values")
	opsFlag  = flag.Int("ops", 10, "operations per workload class (the paper uses 10)")
	seedFlag = flag.Int64("seed", 42, "generator seed")
	jsonFlag = flag.String("json", "", "write the perf experiment's ns/op summary to this file")
)

func main() {
	flag.Parse()
	sizes, err := parseSizes(*sizesStr)
	if err != nil {
		log.Fatal(err)
	}
	run := func(name string, fn func([]int)) {
		if *expFlag == "all" || *expFlag == name {
			fn(sizes)
		}
	}
	run("fig10b", fig10b)
	run("fig11del", fig11del)
	run("fig11ins", fig11ins)
	run("fig11g", fig11g)
	run("fig11h", fig11h)
	run("table1", table1)
	run("ablation", ablation)
	run("perf", perf)
	run("serve", serveExp)
	run("snapshot", snapshotExp)
	run("tx", txExp)
	run("wal", walExp)
	run("obs", obsExp)
	run("chaos", chaosExp)
	run("repl", replExp)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func fig10b(sizes []int) {
	fmt.Println("== Fig.10(b): dataset statistics ==")
	w := newTab()
	fmt.Fprintln(w, "|C|\trows\tDAG nodes\tDAG edges\ttree |T|\tcompr.\tshared\t|L|\t|M|\tbuild")
	for _, nc := range sizes {
		st, took, err := rxview.DatasetStats(nc, *seedFlag)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%.2fx\t%.1f%%\t%d\t%d\t%v\n",
			nc, st.BaseRows, st.Nodes, st.Edges, st.TreeSize, st.Compression,
			100*st.SharedFrac, st.TopoLen, st.MatrixPairs, took.Round(time.Millisecond))
	}
	w.Flush()
	fmt.Println()
}

func fig11(sizes []int, deletes bool) {
	kind := "insertions (Fig.11 d–f)"
	if deletes {
		kind = "deletions (Fig.11 a–c)"
	}
	fmt.Printf("== Fig.11: %s — per-op phase times ==\n", kind)
	w := newTab()
	fmt.Fprintln(w, "|C|\tclass\tops\tapplied\t(a) eval\t(b) translate+exec\t(c) maintain\ttotal")
	for _, nc := range sizes {
		for _, class := range []rxview.WorkloadClass{rxview.W1, rxview.W2, rxview.W3} {
			res, err := rxview.RunWorkload(nc, class, deletes, *opsFlag, *seedFlag)
			if err != nil {
				log.Fatal(err)
			}
			n := time.Duration(res.Ops)
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
				nc, class, res.Ops, res.Applied,
				ms(res.Phases.Eval/n), ms(res.Phases.Translate()/n),
				ms(res.Phases.Maintain/n), ms(res.Phases.Total()/n))
		}
	}
	w.Flush()
	fmt.Println()
}

func fig11del(sizes []int) { fig11(sizes, true) }
func fig11ins(sizes []int) { fig11(sizes, false) }

func fig11g(sizes []int) {
	nc := sizes[len(sizes)-1]
	fmt.Printf("== Fig.11(g): varying |r[[p]]| / |Ep(r)| at |C| = %d ==\n", nc)
	targets := []int{1, 2, 4, 8, 16, 32, 64}
	points, err := rxview.VarySelection(nc, targets, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	w := newTab()
	fmt.Fprintln(w, "target\t|r[[p]]|\t|Ep|\tXdelete\tdelete\t∆(M,L)del\tXinsert\tinsert\t∆(M,L)ins")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			p.Targets, p.RP, p.EP,
			ms(p.Del.XToDV), ms(p.Del.DVToDR), ms(p.Del.Maintain),
			ms(p.Ins.XToDV), ms(p.Ins.DVToDR), ms(p.Ins.Maintain))
	}
	w.Flush()
	fmt.Println()
}

func fig11h(sizes []int) {
	nc := sizes[len(sizes)-1]
	fmt.Printf("== Fig.11(h): varying |ST(A,t)| at |C| = %d, |r[[p]]| = |Ep(r)| = 1 ==\n", nc)
	fanouts := []int{0, 2, 4, 8, 16, 32}
	points, err := rxview.VarySubtree(nc, fanouts, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	w := newTab()
	fmt.Fprintln(w, "|ST| edges\tXinsert\tinsert\t∆(M,L)ins\tXdelete\tdelete\t∆(M,L)del")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			p.STEdges,
			ms(p.Ins.XToDV), ms(p.Ins.DVToDR), ms(p.Ins.Maintain),
			ms(p.Del.XToDV), ms(p.Del.DVToDR), ms(p.Del.Maintain))
	}
	w.Flush()
	fmt.Println()
}

func table1(sizes []int) {
	fmt.Println("== Table 1: incremental maintenance of L and M vs recomputation ==")
	w := newTab()
	fmt.Fprintln(w, "|C|\tincr. insertion\tincr. deletion\trecompute L\trecompute M")
	for _, nc := range sizes {
		res, err := rxview.MaintenanceTable(nc, *seedFlag)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\n",
			nc, ms(res.IncrInsert), ms(res.IncrDelete), ms(res.RecomputeL), ms(res.RecomputeM))
	}
	w.Flush()
	fmt.Println()
}

func ablation(sizes []int) {
	nc := sizes[len(sizes)-1]
	fmt.Printf("== Ablations at |C| = %d ==\n", nc)

	fig4, naive, pairs, err := rxview.ReachAblation(nc, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm Reach (Fig.4): %v vs per-node DFS: %v  (|M| = %d)\n",
		fig4.Round(time.Microsecond), naive.Round(time.Microsecond), pairs)

	bitset, sparse, mpairs, err := rxview.MatrixAblation(nc, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("M representation: bitset rows %v vs sparse relation %v  (|M| = %d)\n",
		bitset.Round(time.Microsecond), sparse.Round(time.Microsecond), mpairs)

	smaller := nc
	if smaller > 5000 {
		smaller = 5000 // the unfolded tree explodes beyond this
	}
	dagT, treeT, dagN, treeN, err := rxview.DAGvsTree(smaller, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("XPath on DAG (%d nodes): %v vs on unfolded tree (%d nodes): %v  [|C| = %d]\n",
		dagN, dagT.Round(time.Microsecond), treeN, treeT.Round(time.Microsecond), smaller)

	full, fast, err := rxview.SideEffectAblation(nc, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("XPath sweep with exact side-effect detection: %v vs selection-only: %v\n",
		full.Round(time.Microsecond), fast.Round(time.Microsecond))

	sweepT, frT, anT, err := rxview.EvalStrategyAblation(nc, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Evaluation strategy: sweep (NFA state-sets over L) %v vs frontier-with-M (paper-literal) %v vs anchored cone %v\n",
		sweepT.Round(time.Microsecond), frT.Round(time.Microsecond), anT.Round(time.Microsecond))

	gT, eT, gN, eN, err := rxview.MinDeleteAblation(nc, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Minimal deletion: greedy %v (|ΔR| = %d) vs exact branch&bound %v (|ΔR| = %d)\n",
		gT.Round(time.Microsecond), gN, eT.Round(time.Microsecond), eN)
	fmt.Println()
}

// perfPoint is one row of the machine-readable perf summary: end-to-end
// ns/op for the hot paths at one dataset size.
type perfPoint struct {
	Size     int   `json:"size"`
	Query    int64 `json:"query_ns_per_op"`    // //-heavy XPath evaluation
	Apply    int64 `json:"apply_ns_per_op"`    // full single-update pipeline (W2 inserts)
	Batch    int64 `json:"batch_ns_per_op"`    // per update inside View.Batch
	Maintain int64 `json:"maintain_ns_per_op"` // L-maintenance share of the apply pipeline
}

// perfFile is the BENCH_PR2.json layout.
type perfFile struct {
	Seed   int64       `json:"seed"`
	Points []perfPoint `json:"points"`
}

func perf(sizes []int) {
	fmt.Println("== Perf summary: end-to-end ns/op ==")
	w := newTab()
	fmt.Fprintln(w, "|C|\tquery\tapply\tbatch\tmaintain")
	out := perfFile{Seed: *seedFlag}
	for _, nc := range sizes {
		pt, err := measurePerf(nc, *seedFlag)
		if err != nil {
			log.Fatal(err)
		}
		out.Points = append(out.Points, pt)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\n", pt.Size, pt.Query, pt.Apply, pt.Batch, pt.Maintain)
	}
	w.Flush()
	fmt.Println()
	if *jsonFlag != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonFlag, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonFlag)
	}
}

func measurePerf(nc int, seed int64) (perfPoint, error) {
	ctx := context.Background()
	pt := perfPoint{Size: nc}

	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: nc, Seed: seed})
	if err != nil {
		return pt, err
	}
	view, err := rxview.Open(syn.ATG, syn.DB, rxview.WithForceSideEffects())
	if err != nil {
		return pt, err
	}

	// Query: a //-heavy recursive selection.
	const qn = 32
	t0 := time.Now()
	for i := 0; i < qn; i++ {
		if _, err := view.Query(ctx, `//C[sub/C]`); err != nil {
			return pt, err
		}
	}
	pt.Query = time.Since(t0).Nanoseconds() / qn

	// Apply + maintain: the full single-update pipeline over a W2 insert
	// workload; maintain is its L-maintenance share per the phase reports.
	stmts := syn.InsertWorkload(rxview.W2, *opsFlag, seed+200)
	if len(stmts) == 0 {
		return pt, fmt.Errorf("perf: empty insert workload at |C| = %d", nc)
	}
	var maintain time.Duration
	t0 = time.Now()
	for _, s := range stmts {
		rep, err := view.Execute(ctx, s)
		if err != nil {
			return pt, fmt.Errorf("%s: %w", s, err)
		}
		maintain += rep.Timings.Maintain
	}
	pt.Apply = time.Since(t0).Nanoseconds() / int64(len(stmts))
	pt.Maintain = maintain.Nanoseconds() / int64(len(stmts))

	// Batch: the same insertion shape through View.Batch on a fresh view —
	// fresh keys under one published root.
	syn2, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: nc, Seed: seed})
	if err != nil {
		return pt, err
	}
	view2, err := rxview.Open(syn2.ATG, syn2.DB, rxview.WithForceSideEffects())
	if err != nil {
		return pt, err
	}
	roots := syn2.Roots()
	if len(roots) == 0 {
		return pt, fmt.Errorf("perf: synthetic dataset has no roots")
	}
	target := fmt.Sprintf(`//C[key="%d"]/sub`, roots[0])
	const bn = 64
	updates := make([]rxview.Update, 0, bn)
	for _, k := range syn2.FreshKeys(bn) {
		updates = append(updates, rxview.Insert(target, "C",
			rxview.Int(k), rxview.Str(fmt.Sprintf("b%d", k))))
	}
	t0 = time.Now()
	if _, err := view2.Batch(ctx, updates...); err != nil {
		return pt, err
	}
	pt.Batch = time.Since(t0).Nanoseconds() / bn
	return pt, nil
}
