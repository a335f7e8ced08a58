package server_test

// Black-box tests of the transactional serving surface: atomic groups
// through Engine.Tx, the one-epoch-per-commit guarantee under concurrent
// readers, and the POST /tx endpoint.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rxview"
	"rxview/server"
)

func txGroupInserts(k, round int) []rxview.Update {
	out := make([]rxview.Update, k)
	for i := range out {
		cno := fmt.Sprintf("TX%03d%02d", round, i)
		out[i] = rxview.Insert(`.`, "course", rxview.Str(cno), rxview.Str("t"))
	}
	return out
}

func TestEngineTxAtomicCommitAndRejection(t *testing.T) {
	ctx := context.Background()
	e, _ := mustRegistrarEngine(t)
	gen0 := e.Generation()

	// Commit: every member applies, generation advances by exactly 1.
	reps, err := e.Tx(ctx,
		rxview.Insert(`.`, "course", rxview.Str("CS111"), rxview.Str("Intro")),
		rxview.Insert(`//course[cno="CS111"]/prereq`, "course", rxview.Str("CS112"), rxview.Str("II")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || !reps[0].Applied || !reps[1].Applied {
		t.Fatalf("reports = %+v", reps)
	}
	if got := e.Generation(); got != gen0+1 {
		t.Fatalf("generation = %d, want %d (one per committed group)", got, gen0+1)
	}
	// Read-your-writes: the group is visible from the published snapshot.
	res, err := e.Query(ctx, `//course[cno="CS112"]`)
	if err != nil || len(res.Nodes) != 1 {
		t.Fatalf("query after tx = %v, %v", res.Nodes, err)
	}

	// Rejection: a shared-subtree insert mid-group dooms it; nothing applies.
	before, err := e.Query(ctx, `//course`)
	if err != nil {
		t.Fatal(err)
	}
	shared := rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS777"), rxview.Str("Sharing"))
	reps, err = e.Tx(ctx,
		rxview.Insert(`.`, "course", rxview.Str("CS211"), rxview.Str("Gone")),
		shared,
		rxview.Insert(`.`, "course", rxview.Str("CS212"), rxview.Str("Never")),
	)
	if !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("tx err = %v, want ErrSideEffect", err)
	}
	// Reports cover the staged prefix plus the rejected member.
	if len(reps) != 2 || reps[1].Applied {
		t.Fatalf("rejected-group reports = %+v", reps)
	}
	if got := e.Generation(); got != gen0+1 {
		t.Fatalf("generation moved on rejected group: %d", got)
	}
	after, err := e.Query(ctx, `//course`)
	if err != nil {
		t.Fatal(err)
	}
	if render(after.Nodes) != render(before.Nodes) {
		t.Fatal("rejected group left visible changes")
	}
	st := e.Stats()
	if st.TxCommitted != 1 || st.TxRejected != 1 {
		t.Fatalf("tx counters = %d/%d, want 1/1", st.TxCommitted, st.TxRejected)
	}
}

// TestTxReadersNeverObserveMidTransaction is the acceptance stress: a
// writer commits groups of k inserts while readers hammer snapshots; every
// observed snapshot must contain a multiple of k transactional courses —
// a mid-transaction generation (or a partially visible group) would show a
// remainder. Run with -race this also exercises publication under load.
func TestTxReadersNeverObserveMidTransaction(t *testing.T) {
	ctx := context.Background()
	e, _ := mustRegistrarEngine(t)
	const k, rounds, readers = 5, 12, 4

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for !stop.Load() {
				res, err := e.Query(ctx, `//course[title="t"]`)
				if err != nil {
					errc <- err
					return
				}
				if len(res.Nodes)%k != 0 {
					errc <- fmt.Errorf("observed %d transactional courses at generation %d — not a multiple of %d: mid-transaction state leaked",
						len(res.Nodes), res.Generation, k)
					return
				}
				if res.Generation < lastGen {
					errc <- fmt.Errorf("generation went backwards: %d after %d", res.Generation, lastGen)
					return
				}
				lastGen = res.Generation
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for round := 0; round < rounds; round++ {
			if _, err := e.Tx(ctx, txGroupInserts(k, round)...); err != nil {
				errc <- fmt.Errorf("round %d: %w", round, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := e.Generation(); got != uint64(rounds) {
		t.Fatalf("generation = %d after %d committed groups, want %d", got, rounds, rounds)
	}
	res, err := e.Query(ctx, `//course[title="t"]`)
	if err != nil || len(res.Nodes) != k*rounds {
		t.Fatalf("final state: %d courses, err %v; want %d", len(res.Nodes), err, k*rounds)
	}
}

// Atomic groups submitted concurrently with plain inserts must be applied
// as groups, never coalesced into a run of single updates (regression:
// gather() once pulled tx requests into runs as zero-value updates, silently
// dropping the group).
func TestTxConcurrentWithPlainInsertsIsNotCoalesced(t *testing.T) {
	ctx := context.Background()
	e, _ := mustRegistrarEngine(t)
	const k, rounds, writers = 3, 8, 3

	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cno := fmt.Sprintf("PL%d%02d", w, i)
				if _, err := e.Update(ctx, rxview.Insert(`.`, "course", rxview.Str(cno), rxview.Str("plain"))); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < rounds; round++ {
			reps, err := e.Tx(ctx, txGroupInserts(k, round)...)
			if err != nil {
				errc <- fmt.Errorf("tx round %d: %w", round, err)
				return
			}
			if len(reps) != k {
				errc <- fmt.Errorf("tx round %d: %d reports, want %d", round, len(reps), k)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	tx, err := e.Query(ctx, `//course[title="t"]`)
	if err != nil || len(tx.Nodes) != k*rounds {
		t.Fatalf("transactional courses = %d, err %v; want %d", len(tx.Nodes), err, k*rounds)
	}
	plain, err := e.Query(ctx, `//course[title="plain"]`)
	if err != nil || len(plain.Nodes) != writers*rounds {
		t.Fatalf("plain courses = %d, err %v; want %d", len(plain.Nodes), err, writers*rounds)
	}
}

func TestHandlerTxEndpoint(t *testing.T) {
	e, _ := mustRegistrarEngine(t)
	srv := httptest.NewServer(server.NewHandler(e, server.HandlerOptions{}))
	defer srv.Close()

	post := func(t *testing.T, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/tx", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	// Atomic group in, per-update reports + single generation out.
	resp, out := post(t, `{"updates":[
		{"kind":"insert","path":".","type":"course","values":["CS111","Intro"]},
		{"kind":"insert","path":"//course[cno=\"CS111\"]/prereq","type":"course","values":["CS112","II"]}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	if gen := out["generation"].(float64); gen != 1 {
		t.Fatalf("generation = %v, want 1", out["generation"])
	}
	reports := out["reports"].([]any)
	if len(reports) != 2 {
		t.Fatalf("reports = %v", out["reports"])
	}
	for i, r := range reports {
		if applied := r.(map[string]any)["applied"].(bool); !applied {
			t.Fatalf("report %d not applied: %v", i, r)
		}
	}

	// 409 on group rejection; the earlier member must not have applied.
	resp, out = post(t, `{"updates":[
		{"kind":"insert","path":".","type":"course","values":["CS311","Gone"]},
		{"kind":"insert","path":"course[cno=\"CS650\"]//course[cno=\"CS320\"]/prereq","type":"course","values":["CS777","Sharing"]}
	]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409: %v", resp.StatusCode, out)
	}
	if out["error"] == "" {
		t.Fatal("409 carries no error")
	}
	if reports, ok := out["reports"].([]any); !ok || len(reports) != 2 {
		t.Fatalf("409 reports = %v, want the staged pair", out["reports"])
	}
	q, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"path":"//course[cno=\"CS311\"]"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if qr.Count != 0 {
		t.Fatal("rejected group member visible via /query")
	}

	// Malformed member: 400, nothing staged.
	resp, _ = post(t, `{"updates":[{"kind":"frobnicate","path":"."}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
