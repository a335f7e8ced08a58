// benchrunner regenerates the tables and figures of the paper's evaluation
// (§5) as text tables: Fig.10(b) dataset statistics, Fig.11(a)–(f) update
// performance per workload class, Fig.11(g)–(h) sensitivity sweeps, Table 1
// (incremental maintenance vs recomputation), and the ablations. It calls
// the experiment harness (internal/bench) directly; the serving system is
// measured by bench/run.sh, not here.
//
// Usage:
//
//	benchrunner -exp all -sizes 1000,5000,20000 -ops 10
//
// -exp is all or one of fig10b, fig11del, fig11ins, fig11g, fig11h, table1,
// ablation; any other name is a usage error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"rxview/internal/bench"
	"rxview/internal/workload"
)

// config is what the flags give every experiment.
type config struct {
	sizes []int
	ops   int
	seed  int64
}

type experiment struct {
	name string
	run  func(w io.Writer, c config) error
}

// experiments is the one list of what -exp accepts, in the order all runs
// them.
var experiments = []experiment{
	{"fig10b", fig10b},
	{"fig11del", fig11del},
	{"fig11ins", fig11ins},
	{"fig11g", fig11g},
	{"fig11h", fig11h},
	{"table1", table1},
	{"ablation", ablation},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, writes the selected
// tables to stdout and returns the exit status — 2 for a bad flag, size
// list or experiment name, 1 for an experiment that failed.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all|"+strings.Join(names, "|"))
	sizesStr := fs.String("sizes", "1000,5000,20000", "comma-separated |C| values")
	ops := fs.Int("ops", 10, "operations per workload class (the paper uses 10)")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sizes, err := parseSizes(*sizesStr)
	if err != nil {
		fmt.Fprintln(stderr, "benchrunner:", err)
		return 2
	}
	selected := experiments
	if *exp != "all" {
		i := slices.Index(names, *exp)
		if i < 0 {
			fmt.Fprintf(stderr, "benchrunner: unknown experiment %q (want all, %s)\n", *exp, strings.Join(names, ", "))
			return 2
		}
		selected = experiments[i : i+1]
	}
	c := config{sizes: sizes, ops: *ops, seed: *seed}
	for _, e := range selected {
		if err := e.run(stdout, c); err != nil {
			fmt.Fprintf(stderr, "benchrunner: %s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
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

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func fig10b(w io.Writer, c config) error {
	fmt.Fprintln(w, "== Fig.10(b): dataset statistics ==")
	tw := newTab(w)
	fmt.Fprintln(tw, "|C|\trows\tDAG nodes\tDAG edges\ttree |T|\tcompr.\tshared\t|L|\t|M|\tbuild")
	for _, nc := range c.sizes {
		st, topoLen, pairs, took, err := bench.DatasetStats(nc, c.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.0f\t%.2fx\t%.1f%%\t%d\t%d\t%v\n",
			nc, st.BaseRows, st.Nodes, st.Edges, st.TreeSize, st.Compression,
			100*st.SharedFrac, topoLen, pairs, took.Round(time.Millisecond))
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func fig11(w io.Writer, c config, deletes bool) error {
	kind := "insertions (Fig.11 d–f)"
	if deletes {
		kind = "deletions (Fig.11 a–c)"
	}
	fmt.Fprintf(w, "== Fig.11: %s — per-op phase times ==\n", kind)
	tw := newTab(w)
	fmt.Fprintln(tw, "|C|\tclass\tops\tapplied\t(a) eval\t(b) translate+exec\t(c) maintain\ttotal")
	for _, nc := range c.sizes {
		for _, class := range []workload.Class{workload.W1, workload.W2, workload.W3} {
			res, err := bench.RunWorkload(nc, class, deletes, c.ops, c.seed)
			if err != nil {
				return err
			}
			n := time.Duration(res.Ops)
			if n == 0 {
				continue
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
				nc, class, res.Ops, res.Applied,
				ms(res.Phases.Eval/n), ms(res.Phases.Translate()/n),
				ms(res.Phases.Maintain/n), ms(res.Phases.Total()/n))
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func fig11del(w io.Writer, c config) error { return fig11(w, c, true) }
func fig11ins(w io.Writer, c config) error { return fig11(w, c, false) }

func fig11g(w io.Writer, c config) error {
	nc := c.sizes[len(c.sizes)-1]
	fmt.Fprintf(w, "== Fig.11(g): varying |r[[p]]| / |Ep(r)| at |C| = %d ==\n", nc)
	targets := []int{1, 2, 4, 8, 16, 32, 64}
	points, err := bench.VarySelection(nc, targets, c.seed)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "target\t|r[[p]]|\t|Ep|\tXdelete\tdelete\t∆(M,L)del\tXinsert\tinsert\t∆(M,L)ins")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			p.Targets, p.RP, p.EP,
			ms(p.Del.XToDV), ms(p.Del.DVToDR), ms(p.Del.Maintain),
			ms(p.Ins.XToDV), ms(p.Ins.DVToDR), ms(p.Ins.Maintain))
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func fig11h(w io.Writer, c config) error {
	nc := c.sizes[len(c.sizes)-1]
	fmt.Fprintf(w, "== Fig.11(h): varying |ST(A,t)| at |C| = %d, |r[[p]]| = |Ep(r)| = 1 ==\n", nc)
	fanouts := []int{0, 2, 4, 8, 16, 32}
	points, err := bench.VarySubtree(nc, fanouts, c.seed)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "|ST| edges\tXinsert\tinsert\t∆(M,L)ins\tXdelete\tdelete\t∆(M,L)del")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			p.STEdges,
			ms(p.Ins.XToDV), ms(p.Ins.DVToDR), ms(p.Ins.Maintain),
			ms(p.Del.XToDV), ms(p.Del.DVToDR), ms(p.Del.Maintain))
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func table1(w io.Writer, c config) error {
	fmt.Fprintln(w, "== Table 1: incremental maintenance of L and M vs recomputation ==")
	tw := newTab(w)
	fmt.Fprintln(tw, "|C|\tincr. insertion\tincr. deletion\trecompute L\trecompute M")
	for _, nc := range c.sizes {
		res, err := bench.Table1(nc, c.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n",
			nc, ms(res.IncrInsert), ms(res.IncrDelete), ms(res.RecomputeL), ms(res.RecomputeM))
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

func ablation(w io.Writer, c config) error {
	nc := c.sizes[len(c.sizes)-1]
	fmt.Fprintf(w, "== Ablations at |C| = %d ==\n", nc)

	fig4, naive, pairs, err := bench.ReachAblation(nc, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Algorithm Reach (Fig.4): %v vs per-node DFS: %v  (|M| = %d)\n",
		fig4.Round(time.Microsecond), naive.Round(time.Microsecond), pairs)

	bitset, sparse, mpairs, err := bench.MatrixAblation(nc, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "M representation: bitset rows %v vs sparse relation %v  (|M| = %d)\n",
		bitset.Round(time.Microsecond), sparse.Round(time.Microsecond), mpairs)

	smaller := nc
	if smaller > 5000 {
		smaller = 5000 // the unfolded tree explodes beyond this
	}
	dagT, treeT, dagN, treeN, err := bench.DAGvsTree(smaller, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "XPath on DAG (%d nodes): %v vs on unfolded tree (%d nodes): %v  [|C| = %d]\n",
		dagN, dagT.Round(time.Microsecond), treeN, treeT.Round(time.Microsecond), smaller)

	full, fast, err := bench.SideEffectAblation(nc, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "XPath sweep with exact side-effect detection: %v vs selection-only: %v\n",
		full.Round(time.Microsecond), fast.Round(time.Microsecond))

	sweepT, frT, anT, err := bench.EvalStrategyAblation(nc, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Evaluation strategy: sweep (NFA state-sets over the view) %v vs frontier-with-M (paper-literal) %v vs anchored cone %v\n",
		sweepT.Round(time.Microsecond), frT.Round(time.Microsecond), anT.Round(time.Microsecond))

	gT, eT, gN, eN, err := bench.MinDeleteAblation(nc, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Minimal deletion: greedy %v (|ΔR| = %d) vs exact branch&bound %v (|ΔR| = %d)\n",
		gT.Round(time.Microsecond), gN, eT.Round(time.Microsecond), eN)
	fmt.Fprintln(w)
	return nil
}
