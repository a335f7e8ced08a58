package server

// White-box tests of the apply loop's one write path: processRun and gather
// are driven directly with crafted request slices on an engine built WITHOUT
// its loop goroutine, which makes the mid-run rejection, cancellation and
// refused-append paths deterministic (a live loop would race the test for
// the queue). The test goroutine plays the role of the single writer.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"rxview"
	"rxview/internal/obs"
)

// newLooplessEngine builds an Engine whose apply loop never starts: the
// test drives gather/processRun/publish itself.
func newLooplessEngine(t *testing.T, opts ...rxview.Option) *Engine {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(atg, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{
		view:    view,
		cfg:     config{queue: 256},
		reqs:    make(chan *request, 256),
		met:     newEngineMetrics(),
		stopCtx: context.Background(),
	}
	e.ep.Store(newEpoch(view.Snapshot()))
	return e
}

func mkReq(ctx context.Context, u rxview.Update) *request {
	return &request{ctx: ctx, updates: []rxview.Update{u}, done: make(chan result, 1)}
}

func take(t *testing.T, r *request) result {
	t.Helper()
	select {
	case res := <-r.done:
		return res
	case <-time.After(10 * time.Second):
		t.Fatalf("no result delivered for %s", r.updates[0])
		return result{}
	}
}

func studentInsert(key string) rxview.Update {
	return rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str(key), rxview.Str("T"))
}

// TestProcessRunMidRejection: a side-effecting member in the middle of a
// run fails alone — the members before it stay applied and the members
// after it apply, exactly as if each had been a lone Apply. Every member is
// stamped with the run's last generation, the first one's included.
func TestProcessRunMidRejection(t *testing.T) {
	ctx := context.Background()
	e := newLooplessEngine(t) // no forcing: the shared insert must fail
	shared := rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS777"), rxview.Str("Sharing"))

	r1 := mkReq(ctx, studentInsert("SR1"))
	r2 := mkReq(ctx, shared)
	r3 := mkReq(ctx, studentInsert("SR3"))
	e.processRun([]*request{r1, r2, r3})

	res1, res2, res3 := take(t, r1), take(t, r2), take(t, r3)
	if res1.err != nil || !res1.reps[0].Applied {
		t.Errorf("first member: applied=%v err=%v, want applied", res1.reps[0] != nil && res1.reps[0].Applied, res1.err)
	}
	if !errors.Is(res2.err, rxview.ErrSideEffect) {
		t.Errorf("side-effecting member err = %v, want ErrSideEffect", res2.err)
	} else if res2.reps[0] == nil || res2.reps[0].Applied {
		t.Errorf("side-effecting member report = %+v, want unapplied", res2.reps[0])
	}
	if res3.err != nil || !res3.reps[0].Applied {
		t.Errorf("member after the rejection: applied=%v err=%v, want applied",
			res3.reps[0] != nil && res3.reps[0].Applied, res3.err)
	}
	// Two applied updates, two generations: the first member's stamp is
	// the run's last, so it covers the third member's write too.
	for i, res := range []result{res1, res2, res3} {
		if res.gen != 2 {
			t.Errorf("member %d stamped with generation %d, want the run's last, 2", i+1, res.gen)
		}
	}

	e.publish()
	for key, want := range map[string]int{"SR1": 1, "SR3": 1} {
		if res, _ := e.Query(ctx, fmt.Sprintf(`//student[ssn=%q]`, key)); len(res.Nodes) != want {
			t.Errorf("student %s: %d nodes, want %d", key, len(res.Nodes), want)
		}
	}
	if res, _ := e.Query(ctx, `//course[cno="CS777"]`); len(res.Nodes) != 0 {
		t.Error("rejected member's subtree is visible")
	}
	// One group staged all three, the rejected one included.
	if runs, upds := e.met.coalRuns.Value(), e.met.coalUpds.Value(); runs != 1 || upds != 3 {
		t.Errorf("coalescing counters: runs=%d upds=%d, want 1/3", runs, upds)
	}
}

// TestProcessRunCanceledQueuedMember: a member whose context is canceled
// before its turn is skipped — it reports context.Canceled, is guaranteed
// unapplied, and the surviving members still share the run's commit.
func TestProcessRunCanceledQueuedMember(t *testing.T) {
	ctx := context.Background()
	e := newLooplessEngine(t, rxview.WithForceSideEffects())
	canceled, cancel := context.WithCancel(ctx)
	cancel()

	r1 := mkReq(ctx, studentInsert("SC1"))
	r2 := mkReq(canceled, studentInsert("SC2"))
	r3 := mkReq(ctx, studentInsert("SC3"))
	e.processRun([]*request{r1, r2, r3})

	if res := take(t, r2); !errors.Is(res.err, context.Canceled) {
		t.Errorf("canceled member err = %v, want context.Canceled", res.err)
	} else if res.reps[0] == nil || res.reps[0].Applied {
		t.Errorf("canceled member report = %+v, want unapplied", res.reps[0])
	}
	for _, r := range []*request{r1, r3} {
		if res := take(t, r); res.err != nil || !res.reps[0].Applied {
			t.Errorf("live member %s: applied=%v err=%v", r.updates[0], res.reps[0] != nil && res.reps[0].Applied, res.err)
		}
	}

	e.publish()
	if res, _ := e.Query(ctx, `//student[ssn="SC2"]`); len(res.Nodes) != 0 {
		t.Error("canceled member was applied")
	}
	if res, _ := e.Query(ctx, `//student[ssn="SC1"]`); len(res.Nodes) != 1 {
		t.Error("surviving members did not apply")
	}
}

// closeCtx is a context whose Done channel the test closes by hand — a
// deterministic hook to end one member's context, with the given cause,
// while the run is mid-flight.
type closeCtx struct {
	context.Context
	cause error
	done  chan struct{}
	once  sync.Once
}

func newCloseCtx(cause error) *closeCtx {
	return &closeCtx{Context: context.Background(), cause: cause, done: make(chan struct{})}
}
func (c *closeCtx) close()                { c.once.Do(func() { close(c.done) }) }
func (c *closeCtx) Done() <-chan struct{} { return c.done }
func (c *closeCtx) Err() error {
	select {
	case <-c.done:
		return c.cause
	default:
		return nil
	}
}

// TestProcessRunInFlightCancelOfAppliedMember cancels member A's context
// while the run is already past A (the side-effect policy consulted for
// member B is the deterministic mid-run hook). Each member is staged under
// its own context, so A's cancellation reaches nobody: A and B both report
// applied and nothing is lost.
func TestProcessRunInFlightCancelOfAppliedMember(t *testing.T) {
	ctx := context.Background()
	actx := newCloseCtx(context.Canceled)
	e := newLooplessEngine(t, rxview.WithSideEffectPolicy(func(rxview.SideEffectInfo) rxview.Decision {
		actx.close() // fires while B is mid-pipeline, after A applied
		return rxview.ApplyEverywhere
	}))

	ra := mkReq(actx, studentInsert("SF1"))
	rb := mkReq(ctx, rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS778"), rxview.Str("InFlight")))
	e.processRun([]*request{ra, rb})

	if res := take(t, ra); res.err != nil || !res.reps[0].Applied {
		t.Errorf("member A: applied=%v err=%v, want applied before its cancellation", res.reps[0] != nil && res.reps[0].Applied, res.err)
	}
	if res := take(t, rb); res.err != nil || !res.reps[0].Applied {
		t.Errorf("member B: applied=%v err=%v, want applied despite A's cancellation", res.reps[0] != nil && res.reps[0].Applied, res.err)
	}

	e.publish()
	if res, _ := e.Query(ctx, `//course[cno="CS778"]`); len(res.Nodes) == 0 {
		t.Error("member B's subtree missing")
	}
	if res, _ := e.Query(ctx, `//student[ssn="SF1"]`); len(res.Nodes) != 1 {
		t.Error("member A's subtree missing")
	}
}

// TestProcessRunDeadlineMidRun expires member B's deadline while B itself is
// mid-pipeline (the policy consulted for B's side effect is the hook; the
// next phase check is B's own). B alone reports DeadlineExceeded, under its
// own cause, and unapplied; its neighbours apply.
func TestProcessRunDeadlineMidRun(t *testing.T) {
	ctx := context.Background()
	bctx := newCloseCtx(context.DeadlineExceeded)
	e := newLooplessEngine(t, rxview.WithSideEffectPolicy(func(rxview.SideEffectInfo) rxview.Decision {
		bctx.close()
		return rxview.ApplyEverywhere
	}))

	ra := mkReq(ctx, studentInsert("SD1"))
	rb := mkReq(bctx, rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS779"), rxview.Str("TooLate")))
	rc := mkReq(ctx, studentInsert("SD3"))
	e.processRun([]*request{ra, rb, rc})

	if res := take(t, rb); !errors.Is(res.err, context.DeadlineExceeded) {
		t.Errorf("expired member err = %v, want context.DeadlineExceeded", res.err)
	} else if res.reps[0] == nil || res.reps[0].Applied {
		t.Errorf("expired member report = %+v, want unapplied", res.reps[0])
	}
	for _, r := range []*request{ra, rc} {
		if res := take(t, r); res.err != nil || !res.reps[0].Applied {
			t.Errorf("neighbour %s: applied=%v err=%v, want applied", r.updates[0], res.reps[0] != nil && res.reps[0].Applied, res.err)
		}
	}
	if res, _ := e.Query(ctx, `//course[cno="CS779"]`); len(res.Nodes) != 0 {
		t.Error("expired member's subtree is visible")
	}
	if got := e.Generation(); got != 2 {
		t.Errorf("generation = %d, want 2 (the two neighbours)", got)
	}
}

// walCounter reads one of the process-wide xview_wal_* counters.
func walCounter(t *testing.T, name string) float64 {
	t.Helper()
	for _, f := range obs.Default().Gather() {
		if f.Name == name {
			return f.Samples[0].Value
		}
	}
	t.Fatalf("no metric family %s", name)
	return 0
}

// TestProcessRunMixedRunOneCommit: insertions and deletions ride one run.
// [ins k, del k, ins k] gets the verdicts three sequential View.Apply calls
// give, one generation each, and shares one log append, one fsync and one
// published epoch.
func TestProcessRunMixedRunOneCommit(t *testing.T) {
	ctx := context.Background()
	updates := []rxview.Update{
		studentInsert("SM1"),
		rxview.Delete(`//student[ssn="SM1"]`),
		studentInsert("SM1"),
	}
	oracle := newLooplessEngine(t, rxview.WithForceSideEffects()).view
	e := newLooplessEngine(t, rxview.WithForceSideEffects(), rxview.WithDurability(t.TempDir()))
	defer e.view.Close()

	wantMoved := map[string]float64{"xview_wal_appends_total": 1, "xview_wal_fsyncs_total": 1, "xview_wal_records_total": 3}
	before := map[string]float64{}
	for name := range wantMoved {
		before[name] = walCounter(t, name)
	}
	swaps := e.met.snapSwaps.Value()

	run := make([]*request, len(updates))
	for i, u := range updates {
		run[i] = mkReq(ctx, u)
	}
	e.processRun(run)

	for i, r := range run {
		want, wantErr := oracle.Apply(ctx, updates[i])
		res := take(t, r)
		if res.err != nil || wantErr != nil {
			t.Fatalf("member %d (%s): err=%v, sequential Apply err=%v", i, r.updates[0], res.err, wantErr)
		}
		if res.reps[0].Applied != want.Applied || res.reps[0].Targets != want.Targets || res.reps[0].Edges != want.Edges ||
			res.reps[0].DVInserts != want.DVInserts || res.reps[0].DVDeletes != want.DVDeletes || res.reps[0].Removed != want.Removed ||
			fmt.Sprint(res.reps[0].Changes) != fmt.Sprint(want.Changes) {
			t.Errorf("member %d (%s): report %+v, sequential Apply gives %+v", i, r.updates[0], res.reps[0], want)
		}
		if res.gen != 3 {
			t.Errorf("member %d: covering generation %d, want 3 (published once, after the run)", i, res.gen)
		}
	}
	if got := e.Generation(); got != 3 {
		t.Errorf("published generation = %d, want 3", got)
	}
	if got := e.met.snapSwaps.Value() - swaps; got != 1 {
		t.Errorf("epochs published = %d, want 1", got)
	}
	for name, want := range wantMoved {
		if got := walCounter(t, name) - before[name]; got != want {
			t.Errorf("%s moved by %v, want %v", name, got, want)
		}
	}
	if res, _ := e.Query(ctx, `//student[ssn="SM1"]`); len(res.Nodes) != 1 {
		t.Errorf("student SM1: %d nodes after insert/delete/insert, want 1", len(res.Nodes))
	}
	if err := e.view.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestProcessRunRefusedAppendDegradedEveryRider: when the log refuses a
// run's one append, every rider whose update applied is in memory and in no
// log — each of them, not just the last, must get the indeterminate verdict
// (ErrDegraded with Applied set). A byte copy of the directory taken right
// after holds none of them.
func TestProcessRunRefusedAppendDegradedEveryRider(t *testing.T) {
	ctx := context.Background()
	runs := map[string][]rxview.Update{
		"inserts": {studentInsert("SL1"), studentInsert("SL2"), studentInsert("SL3")},
		"mixed":   {studentInsert("SL1"), rxview.Delete(`//student[ssn="SL1"]`), studentInsert("SL3")},
	}
	for name, updates := range runs {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := newLooplessEngine(t, rxview.WithForceSideEffects(), rxview.WithDurability(dir))
			defer e.view.Close()
			e.recovering.Store(true) // loopless: no prober to kick

			if err := rxview.EnableChaos("wal.append:count=1", 1); err != nil {
				t.Fatal(err)
			}
			defer rxview.DisableChaos()
			run := make([]*request, len(updates))
			for i, u := range updates {
				run[i] = mkReq(ctx, u)
			}
			e.processRun(run)
			rxview.DisableChaos()

			for i, r := range run {
				res := take(t, r)
				if !res.reps[0].Applied {
					t.Fatalf("member %d (%s) did not apply (err=%v); the run should have reached the commit", i, r.updates[0], res.err)
				}
				var de *rxview.DegradedError
				if !errors.Is(res.err, rxview.ErrDegraded) || !errors.As(res.err, &de) || !de.Applied {
					t.Errorf("member %d (%s): applied in memory, refused by the log, told err=%v; want ErrDegraded with Applied set", i, r.updates[0], res.err)
				}
			}
			if !e.Degraded() {
				t.Error("view not degraded after a refused append")
			}

			image := t.TempDir()
			if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			atg, db, err := rxview.NewRegistrar()
			if err != nil {
				t.Fatal(err)
			}
			reopened, err := rxview.Open(atg, db, rxview.WithDurability(image))
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if got := reopened.Generation(); got != 0 {
				t.Errorf("reopened image is at generation %d, want 0: a refused record reached the log", got)
			}
			if nodes, _ := reopened.Query(ctx, `//student[name="T"]`); len(nodes) != 0 {
				t.Errorf("reopened image holds %d of the run's students, want none", len(nodes))
			}
		})
	}
}

// TestGatherStopsAtDeleteAndCap verifies the run-assembly rules: a deletion
// rides a run like an insertion (it used to break one — the name is from
// then), and so does a client batch; an atomic group or a loop step ends a
// run (returned as carry), and an atomic group runs alone; the cap counts
// updates and never splits a write.
func TestGatherStopsAtDeleteAndCap(t *testing.T) {
	e := newLooplessEngine(t, rxview.WithForceSideEffects())
	ctx := context.Background()
	drain := func() { // so later clauses start from an empty queue
		for len(e.reqs) > 0 {
			<-e.reqs
		}
	}

	// Fill the queue directly (there is no loop to consume it).
	ins := func(i int) *request { return mkReq(ctx, studentInsert(fmt.Sprintf("SG%d", i))) }
	group := func(n int, atomic bool) *request {
		r := &request{ctx: ctx, atomic: atomic, done: make(chan result, 1)}
		for i := 0; i < n; i++ {
			r.updates = append(r.updates, studentInsert(fmt.Sprintf("SGG%d", i)))
		}
		return r
	}
	del := mkReq(ctx, rxview.Delete(`//student[ssn="SG1"]`))
	batch := group(2, false)
	e.reqs <- del
	e.reqs <- batch
	e.reqs <- ins(2)
	run, carry := e.gather(ins(1))
	if len(run) != 4 || run[1] != del || run[2] != batch || carry != nil {
		t.Fatalf("gather over [ins del batch ins]: run=%d carry=%v, want one run of four writes", len(run), carry)
	}

	// Two more updates than one run may absorb.
	for i := 0; i < maxCoalesce+2; i++ {
		e.reqs <- ins(3 + i)
	}
	run, carry = e.gather(<-e.reqs)
	if len(run) != maxCoalesce || carry != nil {
		t.Fatalf("gather at cap %d: run=%d carry=%v", maxCoalesce, len(run), carry)
	}
	drain()

	// A batch that would cross the cap is not split: it starts the next run.
	for i := 0; i < maxCoalesce-2; i++ {
		e.reqs <- ins(i)
	}
	e.reqs <- batch
	run, carry = e.gather(ins(0))
	if len(run) != maxCoalesce-1 || carry != batch {
		t.Fatalf("gather of %d updates then a batch of 2: run=%d carry=%v, want %d writes and the batch as carry",
			maxCoalesce-1, len(run), carry, maxCoalesce-1)
	}

	// A batch larger than the cap, and an atomic group, run whole and alone.
	for _, first := range []*request{group(maxCoalesce+1, false), group(2, true)} {
		e.reqs <- ins(6)
		run, carry = e.gather(first)
		if len(run) != 1 || carry != nil || len(e.reqs) != 1 {
			t.Fatalf("gather from a group of %d (atomic=%v): run=%d carry=%v queued=%d, want it alone",
				len(first.updates), first.atomic, len(run), carry, len(e.reqs))
		}
		drain()
	}

	// An atomic group or a loop step ends a run.
	stops := map[string]*request{
		"tx":   group(1, true),
		"exec": {ctx: ctx, exec: func() error { return nil }, done: make(chan result, 1)},
	}
	for name, stop := range stops {
		e.reqs <- stop
		e.reqs <- ins(6)
		run, carry = e.gather(ins(0))
		if len(run) != 1 || carry != stop {
			t.Fatalf("gather over [ins %s ins]: run=%d carry=%v, want 1-run with the %s as carry", name, len(run), carry, name)
		}
		drain()
	}
}

// TestProcessRunBatchRidesARun: a client batch rides a run between two
// single updates, [ins, batch{ins, side-effecting ins, ins}, del], gathered
// off the queue and applied by processRun on a durable engine. The run
// shares one log append; the batch stops at its own rejection with exactly
// the reports and error View.Batch gives on a twin at the same state, and
// the single updates around it apply. With the append refused, every write
// with an applied update gets the indeterminate DegradedError — a trailing
// clean batch's included — while the rejected batch keeps its stage error.
func TestProcessRunBatchRidesARun(t *testing.T) {
	ctx := context.Background()
	shared := rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS777"), rxview.Str("Sharing"))
	batch := []rxview.Update{studentInsert("SB1"), shared, studentInsert("SB2")}
	del := rxview.Delete(`//student[ssn="SB0"]`)

	// The twin's View.Batch, at the state the batch meets in the run.
	twin := newLooplessEngine(t).view
	if _, err := twin.Apply(ctx, studentInsert("SB0")); err != nil {
		t.Fatal(err)
	}
	wantReps, wantErr := twin.Batch(ctx, batch...)
	if !errors.Is(wantErr, rxview.ErrSideEffect) || len(wantReps) != 2 {
		t.Fatalf("twin batch: %d reports, err %v; want two, ending at the side effect", len(wantReps), wantErr)
	}

	for _, refused := range []bool{false, true} {
		t.Run(fmt.Sprintf("refused=%v", refused), func(t *testing.T) {
			e := newLooplessEngine(t, rxview.WithDurability(t.TempDir()))
			defer e.view.Close()
			e.recovering.Store(true) // loopless: no prober to kick

			first := mkReq(ctx, studentInsert("SB0"))
			br := &request{ctx: ctx, updates: batch, done: make(chan result, 1)}
			dr := mkReq(ctx, del)
			queued := []*request{br, dr}
			if refused {
				clean := &request{ctx: ctx, updates: []rxview.Update{studentInsert("SB3"), studentInsert("SB4")},
					done: make(chan result, 1)}
				queued = append(queued, clean)
			}
			for _, r := range queued {
				e.reqs <- r
			}
			run, carry := e.gather(first)
			if len(run) != len(queued)+1 || carry != nil {
				t.Fatalf("gather: run=%d carry=%v, want all %d writes in one run", len(run), carry, len(queued)+1)
			}
			appends := walCounter(t, "xview_wal_appends_total")
			if refused {
				if err := rxview.EnableChaos("wal.append:count=1", 1); err != nil {
					t.Fatal(err)
				}
				defer rxview.DisableChaos()
			}
			e.processRun(run)
			rxview.DisableChaos()
			if got := walCounter(t, "xview_wal_appends_total") - appends; !refused && got != 1 {
				t.Errorf("xview_wal_appends_total moved by %v, want 1", got)
			}

			res := make([]result, len(run))
			for i, r := range run {
				res[i] = take(t, r)
			}
			got := res[1]
			if len(got.reps) != len(wantReps) || got.err == nil || got.err.Error() != wantErr.Error() {
				t.Fatalf("batch in a run: %d reports, err %v; View.Batch gives %d, err %v", len(got.reps), got.err, len(wantReps), wantErr)
			}
			for i, rep := range got.reps {
				want := wantReps[i]
				if rep.Op != want.Op || rep.Applied != want.Applied || rep.Targets != want.Targets ||
					rep.DVInserts != want.DVInserts || fmt.Sprint(rep.Changes) != fmt.Sprint(want.Changes) {
					t.Errorf("batch member %d: report %+v, View.Batch gives %+v", i, rep, want)
				}
			}
			for _, i := range []int{0, 2} {
				if !res[i].reps[0].Applied {
					t.Errorf("single update %s did not apply (err %v)", run[i].updates[0], res[i].err)
				}
			}
			if !refused {
				for _, i := range []int{0, 2} {
					if res[i].err != nil {
						t.Errorf("single update %s: %v", run[i].updates[0], res[i].err)
					}
				}
				if e.Generation() != 3 {
					t.Errorf("generation %d, want 3: two single updates and the batch's applied member", e.Generation())
				}
				return
			}
			for i, r := range res {
				if i == 1 {
					continue // the rejected batch, checked above
				}
				var de *rxview.DegradedError
				if !errors.As(r.err, &de) || !de.Applied || !anyApplied(r.reps) {
					t.Errorf("write %d: applied=%v err=%v; want applied with DegradedError{Applied: true}", i, anyApplied(r.reps), r.err)
				}
			}
		})
	}
}
