// Synthetic walk-through: generates the §5 dataset at a small scale, prints
// Fig.10(b)-style statistics, and runs one update of each workload class
// with the phase breakdown the paper's Fig.11 reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"rxview"
)

func main() {
	nc := flag.Int("nc", 2000, "|C|, the dataset scale")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()
	ctx := context.Background()

	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: *nc, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	view, err := rxview.Open(syn.ATG, syn.DB, rxview.WithForceSideEffects())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== dataset statistics (|C| = %d), cf. Fig.10(b) ==\n", *nc)
	st := view.Stats()
	fmt.Printf("  base rows:          %d (C=F=CU=%d, H=%d)\n",
		st.BaseRows, syn.DB.Rows("C"), syn.DB.Rows("H"))
	fmt.Printf("  published subtrees: %.0f (tree nodes)\n", st.TreeSize)
	fmt.Printf("  compressed DAG:     %d nodes, %d edges (%.2fx compression)\n",
		st.Nodes, st.Edges, st.Compression)
	fmt.Printf("  shared subtrees:    %.1f%% of nodes (paper: 31.4%% of C instances)\n\n",
		100*st.SharedFrac)

	run := func(label string, stmts []string) {
		for _, stmt := range stmts {
			rep, err := view.Execute(ctx, stmt)
			if err != nil {
				fmt.Printf("  [%s] %s\n    rejected: %v\n", label, stmt, err)
				continue
			}
			fmt.Printf("  [%s] %s\n", label, clip(stmt, 100))
			fmt.Printf("    |r[[p]]|=%d |Ep|=%d ΔV+%d/-%d ΔR=%d mutation(s)\n",
				rep.Targets, rep.Edges, rep.DVInserts, rep.DVDeletes, len(rep.Changes))
			fmt.Printf("    (a) eval=%v  (b) translate+apply=%v  (c) maintain=%v\n",
				rep.Timings.Eval, rep.Timings.Translate+rep.Timings.Apply, rep.Timings.Maintain)
			if err := view.CheckConsistency(); err != nil {
				log.Fatal("INVARIANT BROKEN: ", err)
			}
		}
	}

	// Insertions first: the workload generator addresses the initial view,
	// and W1 deletions remove whole value classes.
	fmt.Println("== one insertion per workload class (Fig.11 d–f) ==")
	run("W1 ins", syn.InsertWorkload(rxview.W1, 1, 4))
	run("W2 ins", syn.InsertWorkload(rxview.W2, 1, 5))
	run("W3 ins", syn.InsertWorkload(rxview.W3, 1, 6))
	fmt.Println()
	fmt.Println("== one deletion per workload class (Fig.11 a–c) ==")
	run("W1 del", syn.DeleteWorkload(rxview.W1, 1, 1))
	run("W2 del", syn.DeleteWorkload(rxview.W2, 1, 2))
	run("W3 del", syn.DeleteWorkload(rxview.W3, 1, 3))
	fmt.Println()
	fmt.Println("final:", view.Stats())
	fmt.Println("every update verified against a from-scratch republication ✓")
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
