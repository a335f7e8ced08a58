package server_test

// Black-box tests of the serving layer: the differential reader/writer
// stress test (every observed result must equal the sequential oracle's
// state at the generation the reader saw — snapshot consistency as a
// checkable property), concurrent-writer coalescing, and lifecycle.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"rxview"
	"rxview/server"
)

func mustRegistrarEngine(t testing.TB, opts ...rxview.Option) (*server.Engine, *rxview.View) {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(atg, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e := server.New(view)
	t.Cleanup(e.Close)
	return e, view
}

// render maps a node list to an order-independent fingerprint.
func render(nodes []rxview.Node) string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.String()
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

// TestStressPrefixConsistentReads is the linearizability-lite check: N
// readers hammer Query while a writer applies a recorded update script.
// A second, identical view applies the same script sequentially and records
// the expected result at every generation; every result a reader observes
// must match the oracle's result at the generation the snapshot carried —
// i.e. correspond exactly to some prefix of the write history. Run under
// -race this also exercises the snapshot-publication machinery.
func TestStressPrefixConsistentReads(t *testing.T) {
	ctx := context.Background()
	const nc, seed = 80, 7
	const q = `//C`

	open := func() (*rxview.View, *rxview.Synthetic) {
		syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: nc, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		view, err := rxview.Open(syn.ATG, syn.DB, rxview.WithForceSideEffects())
		if err != nil {
			t.Fatal(err)
		}
		return view, syn
	}
	liveView, syn := open()
	oracleView, _ := open()

	// Recorded script: fresh-key insertions under one published root,
	// interleaved with deletions of keys inserted two steps earlier, so
	// every update applies and every generation has a distinct reachable
	// state.
	roots := syn.Roots()
	if len(roots) == 0 {
		t.Fatal("synthetic dataset has no roots")
	}
	target := fmt.Sprintf(`//C[key="%d"]/sub`, roots[0])
	const nOps = 36
	keys := syn.FreshKeys(nOps)
	var script []rxview.Update
	for i := 0; i < nOps; i++ {
		if i%3 == 2 {
			script = append(script, rxview.Delete(fmt.Sprintf(`//C[key="%d"]`, keys[i-1])))
		} else {
			script = append(script, rxview.Insert(target, "C",
				rxview.Int(keys[i]), rxview.Str(fmt.Sprintf("s%d", i))))
		}
	}

	// Sequential oracle: expected fingerprint per generation.
	oracle := map[uint64]string{}
	snapshotOracle := func() {
		nodes, err := oracleView.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		oracle[oracleView.Generation()] = render(nodes)
	}
	snapshotOracle()
	for i, u := range script {
		rep, err := oracleView.Apply(ctx, u)
		if err != nil || !rep.Applied {
			t.Fatalf("oracle update %d (%s): applied=%v err=%v", i, u, rep.Applied, err)
		}
		snapshotOracle()
	}

	eng := server.New(liveView)
	defer eng.Close()

	const readers = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := eng.Query(ctx, q)
				if err != nil {
					errc <- err
					return
				}
				if res.Generation < lastGen {
					errc <- fmt.Errorf("generation went backwards: %d after %d", res.Generation, lastGen)
					return
				}
				lastGen = res.Generation
				want, ok := oracle[res.Generation]
				if !ok {
					errc <- fmt.Errorf("observed generation %d outside the write history", res.Generation)
					return
				}
				if got := render(res.Nodes); got != want {
					errc <- fmt.Errorf("generation %d: observed state does not match the oracle prefix:\n got %s\nwant %s",
						res.Generation, got, want)
					return
				}
			}
		}()
	}

	for i, u := range script {
		rep, err := eng.Update(ctx, u)
		if err != nil || !rep.Applied {
			t.Fatalf("engine update %d (%s): applied=%v err=%v", i, u, rep != nil && rep.Applied, err)
		}
		// Read-your-writes: the snapshot covering an acknowledged update is
		// published before Update returns, so the sole writer sees its own
		// generation immediately.
		if got := eng.Generation(); got != uint64(i+1) {
			t.Fatalf("generation after update %d = %d, want %d (snapshot published after verdict?)", i, got, i+1)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if got, want := eng.Generation(), oracleView.Generation(); got != want {
		t.Errorf("final generation %d, oracle %d", got, want)
	}
	res, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if render(res.Nodes) != oracle[oracleView.Generation()] {
		t.Error("final engine state differs from the oracle")
	}
	if st := eng.Stats(); st.Queries == 0 || st.UpdatesApplied != uint64(nOps) {
		t.Errorf("stats: %+v (want %d applied, >0 queries)", st, nOps)
	}
}

// TestReadSideNeverTouchesLiveView is the single-writer contract seen from
// the read side, and has a verdict only under -race: while a writer commits
// (and checkpoints), reader goroutines call every Engine method and HTTP
// route documented as safe for concurrent use. Each must be served from
// the published epoch, atomics, or the View methods documented as safe off
// the loop; one that reads the live view (Engine.Stats calling
// e.view.Stats()) or writes a field the loop owns is a reported race. A new
// read-side method or route joins the two lists below.
func TestReadSideNeverTouchesLiveView(t *testing.T) {
	ctx := context.Background()
	eng, view := mustRegistrarEngine(t, rxview.WithForceSideEffects(),
		rxview.WithDurability(t.TempDir()), rxview.WithFsync(rxview.FsyncOff), rxview.WithCheckpointEvery(8))
	h := server.NewHandler(eng, server.HandlerOptions{Checkpointing: view.Checkpointing})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = eng.Stats()
				_ = eng.Generation()
				_ = eng.Snapshot().Stats()
				_ = eng.Degraded()
				_ = eng.Primary()
				_ = eng.Metrics().Gather()
				_, _ = eng.SlowLog().Entries()
				for _, route := range []string{"/stats", "/healthz", "/metrics", "/debug/vars"} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
					if rec.Code != 200 && route != "/healthz" { // 503 while a checkpoint stalls the writer
						t.Errorf("GET %s = %d", route, rec.Code)
						return
					}
				}
			}
		}()
	}
	const target = `//course[cno="CS650"]/takenBy`
	for i := 0; i < 40; i++ {
		ssn := fmt.Sprintf("R%02d", i)
		if rep, err := eng.Update(ctx, rxview.Insert(target, "student", rxview.Str(ssn), rxview.Str("x"))); err != nil || !rep.Applied {
			t.Fatalf("insert %s: applied=%v err=%v", ssn, rep != nil && rep.Applied, err)
		}
		if rep, err := eng.Update(ctx, rxview.Delete(fmt.Sprintf(`//student[ssn="%s"]`, ssn))); err != nil || !rep.Applied {
			t.Fatalf("delete %s: applied=%v err=%v", ssn, rep != nil && rep.Applied, err)
		}
	}
	close(done)
	wg.Wait()
	eng.Close()
	if err := view.Close(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentWritersConverge submits commuting updates from several
// goroutines at once — the shape the apply loop absorbs into shared runs.
// Every writer inserts its own students; the odd ones delete each one again
// right after, so insertions and deletions ride the same runs. The first
// four writers send one Engine.Update per update, the next two their script
// as Engine.Batch pairs (which ride runs too) and the last two as Engine.Tx
// pairs (which run alone). Every update gets an applied verdict and the
// final state equals a sequential oracle's.
func TestConcurrentWritersConverge(t *testing.T) {
	ctx := context.Background()
	eng, view := mustRegistrarEngine(t, rxview.WithForceSideEffects())

	const writers, perWriter = 8, 20
	// submit sends a slice of w's script the way writer w does.
	submit := func(w int, us []rxview.Update) ([]*rxview.Report, error) {
		switch {
		case w < 4:
			rep, err := eng.Update(ctx, us[0])
			return []*rxview.Report{rep}, err
		case w < 6:
			return eng.Batch(ctx, us...)
		default:
			return eng.Tx(ctx, us...)
		}
	}
	script := func(w int) []rxview.Update {
		var out []rxview.Update
		for i := 0; i < perWriter; i++ {
			ssn := fmt.Sprintf("SW%d-%02d", w, i)
			out = append(out, rxview.Insert(`//course[cno="CS650"]/takenBy`, "student",
				rxview.Str(ssn), rxview.Str("Load")))
			if w%2 == 1 {
				out = append(out, rxview.Delete(fmt.Sprintf(`//student[ssn=%q]`, ssn)))
			}
		}
		return out
	}

	// The writers' scripts commute with each other, so any interleaving must
	// end where running them one after another does.
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := rxview.Open(atg, db, rxview.WithForceSideEffects())
	if err != nil {
		t.Fatal(err)
	}
	total, wantGen := 0, 0
	for w := 0; w < writers; w++ {
		us := script(w)
		for _, u := range us {
			if rep, err := oracle.Apply(ctx, u); err != nil || !rep.Applied {
				t.Fatalf("oracle %s: applied=%v err=%v", u, rep.Applied, err)
			}
		}
		total += len(us)
		if w < 6 {
			wantGen += len(us)
		} else {
			wantGen += len(us) / 2 // a committed Tx pair is one generation
		}
	}
	want, err := oracle.Query(ctx, `//student`)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			step := 1
			if w >= 4 {
				step = 2
			}
			us := script(w)
			for i := 0; i < len(us); i += step {
				reps, err := submit(w, us[i:i+step])
				if err != nil {
					errc <- fmt.Errorf("writer %d, %s: %w", w, us[i], err)
					return
				}
				for j, rep := range reps {
					if !rep.Applied || len(reps) != step {
						errc <- fmt.Errorf("writer %d, %s: %d reports, not applied", w, us[i+j], len(reps))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	after, err := eng.Query(ctx, `//student`)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(after.Nodes); got != render(want) {
		t.Errorf("students after concurrent writers differ from the sequential oracle:\n got %s\nwant %s", got, render(want))
	}
	st := eng.Stats()
	if st.UpdatesApplied != uint64(total) || st.Generation != uint64(wantGen) {
		t.Errorf("UpdatesApplied = %d at generation %d, want %d at %d", st.UpdatesApplied, st.Generation, total, wantGen)
	}
	t.Logf("coalescing: %d runs absorbed %d updates", st.CoalescedRuns, st.CoalescedUpdates)

	// Close the engine, then verify the underlying view directly: the
	// apply loop has stopped, so direct access is safe again.
	eng.Close()
	if err := view.CheckConsistency(); err != nil {
		t.Errorf("view inconsistent after concurrent load: %v", err)
	}
	if _, err := eng.Update(ctx, rxview.Delete(`//student[ssn="SW0-00"]`)); !errors.Is(err, server.ErrClosed) {
		t.Errorf("Update after Close = %v, want ErrClosed", err)
	}
}

// TestEngineBatchPrefixSemantics checks a client batch keeps View.Batch's
// documented behavior when routed through the loop.
func TestEngineBatchPrefixSemantics(t *testing.T) {
	ctx := context.Background()
	eng, _ := mustRegistrarEngine(t) // side effects rejected
	good := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("SB1"), rxview.Str("Pre"))
	shared := rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS777"), rxview.Str("Sharing"))
	never := rxview.Insert(`//course[cno="CS240"]/takenBy`, "student", rxview.Str("SB2"), rxview.Str("Post"))

	reps, err := eng.Batch(ctx, good, shared, never)
	if !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("batch error = %v, want ErrSideEffect", err)
	}
	if len(reps) != 2 || !reps[0].Applied || reps[1].Applied {
		t.Fatalf("prefix semantics violated: %+v", reps)
	}
	if res, _ := eng.Query(ctx, `//student[ssn="SB1"]`); len(res.Nodes) != 1 {
		t.Error("applied prefix not visible after failed batch")
	}
	if res, _ := eng.Query(ctx, `//student[ssn="SB2"]`); len(res.Nodes) != 0 {
		t.Error("suffix update ran after the failure")
	}
}
