package main

// The tx experiment measures what the transactional API costs and buys:
// k insertions applied as one atomic Tx.Commit vs the same k as sequential
// View.Apply calls vs the non-atomic View.Batch, across view sizes. All
// three run the same per-update pipeline, so their per-update cost should
// track each other; the atomic mode's extra price is the Begin-time copy of
// L.
//
//	benchrunner -exp tx -sizes 250,2500,25000 -json BENCH_PR5.json

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"rxview"
)

// txPoint is one row of BENCH_PR5.json.
type txPoint struct {
	NC       int   `json:"nc"`
	Nodes    int   `json:"nodes"`
	K        int   `json:"k"`                   // updates per group
	SeqNS    int64 `json:"seq_apply_ns_per_op"` // k sequential View.Apply, per update
	BatchNS  int64 `json:"batch_ns_per_op"`     // non-atomic View.Batch, per update
	TxNS     int64 `json:"tx_commit_ns_per_op"` // Begin + k stages + Commit, per update
	BeginNS  int64 `json:"tx_begin_ns"`         // the Begin-time rollback-state capture
	CommitNS int64 `json:"tx_commit_total_ns"`  // the Commit call itself (journal commit + seal)
}

type txFile struct {
	Seed   int64     `json:"seed"`
	Points []txPoint `json:"points"`
}

func txExp(sizes []int) {
	fmt.Println("== Tx: atomic commit vs sequential Apply vs non-atomic Batch (k inserts, per-update ns) ==")
	w := newTab()
	fmt.Fprintln(w, "|C|\tnodes\tk\tseq apply\tbatch\ttx commit\tbegin\tcommit")
	out := txFile{Seed: *seedFlag}
	for _, nc := range sizes {
		pt, err := measureTx(nc, *seedFlag)
		if err != nil {
			log.Fatal(err)
		}
		out.Points = append(out.Points, pt)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			pt.NC, pt.Nodes, pt.K, pt.SeqNS, pt.BatchNS, pt.TxNS, pt.BeginNS, pt.CommitNS)
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

// txView opens a fresh synthetic view and returns the insert workload: k
// fresh subtrees under one published root (|r[[p]]| = 1 per update).
func txView(nc int, seed int64, k int) (*rxview.View, []rxview.Update, error) {
	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: nc, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	view, err := rxview.Open(syn.ATG, syn.DB, rxview.WithForceSideEffects())
	if err != nil {
		return nil, nil, err
	}
	roots := syn.Roots()
	if len(roots) == 0 {
		return nil, nil, fmt.Errorf("tx: synthetic dataset has no roots")
	}
	target := fmt.Sprintf(`//C[key="%d"]/sub`, roots[0])
	updates := make([]rxview.Update, 0, k)
	for _, key := range syn.FreshKeys(k) {
		updates = append(updates, rxview.Insert(target, "C",
			rxview.Int(key), rxview.Str(fmt.Sprintf("tx%d", key))))
	}
	return view, updates, nil
}

func measureTx(nc int, seed int64) (txPoint, error) {
	ctx := context.Background()
	const k = 64
	pt := txPoint{NC: nc, K: k}

	// Sequential Apply.
	view, updates, err := txView(nc, seed, k)
	if err != nil {
		return pt, err
	}
	pt.Nodes = view.Stats().Nodes
	t0 := time.Now()
	for _, u := range updates {
		if _, err := view.Apply(ctx, u); err != nil {
			return pt, fmt.Errorf("tx seq at |C|=%d: %w", nc, err)
		}
	}
	pt.SeqNS = time.Since(t0).Nanoseconds() / k

	// Non-atomic Batch.
	view, updates, err = txView(nc, seed, k)
	if err != nil {
		return pt, err
	}
	t0 = time.Now()
	if _, err := view.Batch(ctx, updates...); err != nil {
		return pt, fmt.Errorf("tx batch at |C|=%d: %w", nc, err)
	}
	pt.BatchNS = time.Since(t0).Nanoseconds() / k

	// Atomic transaction.
	view, updates, err = txView(nc, seed, k)
	if err != nil {
		return pt, err
	}
	t0 = time.Now()
	tx, err := view.Begin(ctx)
	if err != nil {
		return pt, err
	}
	pt.BeginNS = time.Since(t0).Nanoseconds()
	for _, u := range updates {
		if _, err := tx.Stage(ctx, u); err != nil {
			return pt, fmt.Errorf("tx stage at |C|=%d: %w", nc, err)
		}
	}
	tc := time.Now()
	if err := tx.Commit(ctx); err != nil {
		return pt, fmt.Errorf("tx commit at |C|=%d: %w", nc, err)
	}
	now := time.Now()
	pt.CommitNS = now.Sub(tc).Nanoseconds()
	pt.TxNS = now.Sub(t0).Nanoseconds() / k
	return pt, nil
}
