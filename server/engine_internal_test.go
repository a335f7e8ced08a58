package server

// White-box tests of the apply loop's coalescing machinery: processRun and
// gather are driven directly with crafted request slices on an engine
// built WITHOUT its loop goroutine, which makes the mid-batch rejection
// and queued-cancellation paths deterministic (a live loop would race the
// test for the queue). The test goroutine plays the role of the single
// writer.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rxview"
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
		view: view,
		cfg:  config{queue: 256},
		reqs: make(chan *request, 256),
		met:  newEngineMetrics(),
	}
	e.ep.Store(&epoch{sn: view.Snapshot(), memo: newResultMemo(memoCap)})
	return e
}

func mkReq(ctx context.Context, u rxview.Update) *request {
	return &request{ctx: ctx, u: u, done: make(chan result, 1)}
}

func take(t *testing.T, r *request) result {
	t.Helper()
	select {
	case res := <-r.done:
		return res
	case <-time.After(10 * time.Second):
		t.Fatalf("no result delivered for %s", r.u)
		return result{}
	}
}

func studentInsert(key string) rxview.Update {
	return rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str(key), rxview.Str("T"))
}

// TestProcessRunMidRejection: a side-effecting member in the middle of a
// coalesced run fails alone — the members before it stay applied and the
// members after it are re-applied, exactly as if each had been a lone
// Apply. This extends View.Batch's prefix semantics to independent
// submissions.
func TestProcessRunMidRejection(t *testing.T) {
	ctx := context.Background()
	e := newLooplessEngine(t) // no forcing: the shared insert must fail
	shared := rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS777"), rxview.Str("Sharing"))

	r1 := mkReq(ctx, studentInsert("SR1"))
	r2 := mkReq(ctx, shared)
	r3 := mkReq(ctx, studentInsert("SR3"))
	e.processRun([]*request{r1, r2, r3})

	if res := take(t, r1); res.err != nil || !res.rep.Applied {
		t.Errorf("first member: applied=%v err=%v, want applied", res.rep != nil && res.rep.Applied, res.err)
	}
	if res := take(t, r2); !errors.Is(res.err, rxview.ErrSideEffect) {
		t.Errorf("side-effecting member err = %v, want ErrSideEffect", res.err)
	} else if res.rep == nil || res.rep.Applied {
		t.Errorf("side-effecting member report = %+v, want unapplied", res.rep)
	}
	if res := take(t, r3); res.err != nil || !res.rep.Applied {
		t.Errorf("member after the rejection: applied=%v err=%v, want re-applied",
			res.rep != nil && res.rep.Applied, res.err)
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
	// Each update is tallied once, however many retry rounds it rides
	// through; the re-applied member finished alone (Apply path), so one
	// Batch call absorbed all three.
	if runs, upds := e.met.coalRuns.Value(), e.met.coalUpds.Value(); runs != 1 || upds != 3 {
		t.Errorf("coalescing counters after retried run: runs=%d upds=%d, want 1/3", runs, upds)
	}
}

// TestProcessRunCanceledQueuedMember: a member whose context is canceled
// before the run starts is skipped up front — it reports context.Canceled,
// is guaranteed unapplied, and the surviving members still coalesce.
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
	} else if res.rep == nil || res.rep.Applied {
		t.Errorf("canceled member report = %+v, want unapplied", res.rep)
	}
	for _, r := range []*request{r1, r3} {
		if res := take(t, r); res.err != nil || !res.rep.Applied {
			t.Errorf("live member %s: applied=%v err=%v", r.u, res.rep != nil && res.rep.Applied, res.err)
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

// closeCtx is a context whose Done channel the test closes by hand —
// a deterministic hook to cancel one member while the coalesced run is
// mid-flight.
type closeCtx struct {
	context.Context
	done chan struct{}
	once sync.Once
}

func newCloseCtx() *closeCtx {
	return &closeCtx{Context: context.Background(), done: make(chan struct{})}
}
func (c *closeCtx) close()                { c.once.Do(func() { close(c.done) }) }
func (c *closeCtx) Done() <-chan struct{} { return c.done }
func (c *closeCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestProcessRunInFlightCancelOfAppliedMember cancels member A's context
// while the run is already past A (the side-effect policy consulted for
// member B is the deterministic mid-run hook). Whichever way the shared run
// context's abort lands — before or after B's own phase checks — the
// outcome must converge: A and B both report applied, nothing is lost, and
// the canceled context never aborts an innocent member permanently.
func TestProcessRunInFlightCancelOfAppliedMember(t *testing.T) {
	ctx := context.Background()
	actx := newCloseCtx()
	e := newLooplessEngine(t, rxview.WithSideEffectPolicy(func(rxview.SideEffectInfo) rxview.Decision {
		actx.close() // fires while B is mid-pipeline, after A applied
		return rxview.ApplyEverywhere
	}))

	ra := mkReq(actx, studentInsert("SF1"))
	rb := mkReq(ctx, rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS778"), rxview.Str("InFlight")))
	e.processRun([]*request{ra, rb})

	if res := take(t, ra); res.err != nil || !res.rep.Applied {
		t.Errorf("member A: applied=%v err=%v, want applied before its cancellation", res.rep != nil && res.rep.Applied, res.err)
	}
	if res := take(t, rb); res.err != nil || !res.rep.Applied {
		t.Errorf("member B: applied=%v err=%v, want applied despite A's cancellation", res.rep != nil && res.rep.Applied, res.err)
	}

	e.publish()
	if res, _ := e.Query(ctx, `//course[cno="CS778"]`); len(res.Nodes) == 0 {
		t.Error("member B's subtree missing")
	}
	if res, _ := e.Query(ctx, `//student[ssn="SF1"]`); len(res.Nodes) != 1 {
		t.Error("member A's subtree missing")
	}
}

// TestGatherStopsAtDeleteAndCap verifies the run-assembly rules: deletions
// and client batches break a run (returned as carry), and the coalescing
// cap bounds it.
func TestGatherStopsAtDeleteAndCap(t *testing.T) {
	e := newLooplessEngine(t, rxview.WithForceSideEffects())
	ctx := context.Background()

	// Fill the queue directly (there is no loop to consume it): an insert,
	// a delete, then two more inserts than one run may absorb.
	ins := func(i int) *request { return mkReq(ctx, studentInsert(fmt.Sprintf("SG%d", i))) }
	del := mkReq(ctx, rxview.Delete(`//student[ssn="SG0"]`))
	e.reqs <- del
	for i := 0; i < maxCoalesce+2; i++ {
		e.reqs <- ins(2 + i)
	}

	run, carry := e.gather(ins(1))
	if len(run) != 1 || carry != del {
		t.Fatalf("gather over [ins del ...]: run=%d carry=%v, want 1-run with the delete as carry", len(run), carry)
	}
	run, carry = e.gather(<-e.reqs)
	if len(run) != maxCoalesce || carry != nil {
		t.Fatalf("gather at cap %d: run=%d carry=%v", maxCoalesce, len(run), carry)
	}
	// Drain what's left so Close doesn't process stale requests.
	for len(e.reqs) > 0 {
		<-e.reqs
	}

	// An atomic group must break a run exactly like a batch or deletion —
	// coalescing it would apply its zero-value update and drop the group.
	txReq := &request{ctx: ctx, tx: []rxview.Update{studentInsert("SGTX")}, done: make(chan result, 1)}
	e.reqs <- txReq
	e.reqs <- ins(6)
	run, carry = e.gather(ins(0))
	if len(run) != 1 || carry != txReq {
		t.Fatalf("gather over [ins tx ins]: run=%d carry=%v, want 1-run with the tx as carry", len(run), carry)
	}
	for len(e.reqs) > 0 {
		<-e.reqs
	}
}
