package rxview_test

// Tests of the public API surface: the typed-error taxonomy, the
// side-effect policy hook, context cancellation, and the equivalence of
// Batch with sequential Apply.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rxview"
)

func mustView(t *testing.T, opts ...rxview.Option) *rxview.View {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(atg, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// sharedInsert targets the CS320 occurrence below CS650 only; CS320's
// subtree is shared with the top level, so the update has an XML side
// effect (the quickstart's Example 1 situation).
var sharedInsert = rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
	"course", rxview.Str("CS777"), rxview.Str("Sharing"))

func TestErrSideEffectRoundTrip(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)

	rep, err := view.Apply(ctx, sharedInsert)
	if err == nil {
		t.Fatal("side-effecting insert applied without error")
	}
	if !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("errors.Is(err, ErrSideEffect) = false for %v", err)
	}
	var se *rxview.SideEffectError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As *SideEffectError failed for %v", err)
	}
	if se.Witnesses == 0 {
		t.Error("side-effect error carries no witnesses")
	}
	if rep == nil || !rep.SideEffects {
		t.Error("report does not flag side effects")
	}
	if rep.Applied {
		t.Error("rejected update reported as applied")
	}
	// The same update must be distinguishable from the other sentinels.
	if errors.Is(err, rxview.ErrNotUpdatable) || errors.Is(err, rxview.ErrParse) {
		t.Errorf("side-effect error matches unrelated sentinels: %v", err)
	}
	// DryRun returns exactly the same class of error.
	if _, err := view.DryRun(ctx, sharedInsert); !errors.Is(err, rxview.ErrSideEffect) {
		t.Errorf("DryRun error = %v, want ErrSideEffect", err)
	}
	// Forcing applies it.
	forced := mustView(t, rxview.WithForceSideEffects())
	if rep, err := forced.Apply(ctx, sharedInsert); err != nil || !rep.Applied {
		t.Fatalf("forced apply: rep=%+v err=%v", rep, err)
	}
}

func TestErrNotUpdatableRoundTrip(t *testing.T) {
	ctx := context.Background()
	view := mustView(t, rxview.WithForceSideEffects())
	// EE100 exists in the base data with dept=EE; publishing it at the
	// top level of the CS view would require changing base data the
	// update did not ask for — the translation rejects it (§4).
	_, err := view.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("EE100"), rxview.Str("Circuits")))
	if !errors.Is(err, rxview.ErrNotUpdatable) {
		t.Fatalf("errors.Is(err, ErrNotUpdatable) = false for %v", err)
	}
	var nu *rxview.NotUpdatableError
	if !errors.As(err, &nu) || nu.Reason == "" {
		t.Fatalf("errors.As *NotUpdatableError failed for %v", err)
	}
}

func TestErrParseRoundTrip(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)
	if _, err := view.Query(ctx, `//course[`); !errors.Is(err, rxview.ErrParse) {
		t.Errorf("Query parse error = %v, want ErrParse", err)
	}
	if _, err := view.Apply(ctx, rxview.Delete(`//course[`)); !errors.Is(err, rxview.ErrParse) {
		t.Errorf("Apply parse error = %v, want ErrParse", err)
	}
	if _, err := view.Execute(ctx, `frobnicate //course`); !errors.Is(err, rxview.ErrParse) {
		t.Errorf("Execute parse error = %v, want ErrParse", err)
	}
}

func TestSideEffectPolicySkip(t *testing.T) {
	ctx := context.Background()
	var consulted []rxview.SideEffectInfo
	view := mustView(t, rxview.WithSideEffectPolicy(func(info rxview.SideEffectInfo) rxview.Decision {
		consulted = append(consulted, info)
		return rxview.Skip
	}))
	before, err := view.XML(100000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := view.Apply(ctx, sharedInsert)
	if err != nil {
		t.Fatalf("Skip decision must not error: %v", err)
	}
	if rep.Applied {
		t.Error("skipped update reported as applied")
	}
	if len(consulted) != 1 || consulted[0].Witnesses == 0 || consulted[0].Delete {
		t.Errorf("policy consultation = %+v", consulted)
	}
	after, err := view.XML(100000)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Error("skipped update changed the view")
	}
}

// TestSideEffectPolicyTakesPrecedence: a policy decides over
// WithForceSideEffects, whichever of the two options comes first.
func TestSideEffectPolicyTakesPrecedence(t *testing.T) {
	ctx := context.Background()
	skip := rxview.WithSideEffectPolicy(func(rxview.SideEffectInfo) rxview.Decision { return rxview.Skip })
	for name, opts := range map[string][]rxview.Option{
		"policy first": {skip, rxview.WithForceSideEffects()},
		"force first":  {rxview.WithForceSideEffects(), skip},
	} {
		view := mustView(t, opts...)
		rep, err := view.Apply(ctx, sharedInsert)
		if err != nil || rep.Applied {
			t.Errorf("%s: applied=%v err=%v, want the policy's skip", name, rep.Applied, err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	view := mustView(t, rxview.WithForceSideEffects())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before, _ := view.XML(100000)

	if _, err := view.Query(ctx, `//course`); !errors.Is(err, context.Canceled) {
		t.Errorf("Query under cancelled ctx = %v", err)
	}
	u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S41"), rxview.Str("Zed"))
	if _, err := view.Apply(ctx, u); !errors.Is(err, context.Canceled) {
		t.Errorf("Apply under cancelled ctx = %v", err)
	}
	if _, err := view.Batch(ctx, u, u); !errors.Is(err, context.Canceled) {
		t.Errorf("Batch under cancelled ctx = %v", err)
	}
	after, _ := view.XML(100000)
	if before != after {
		t.Error("cancelled updates changed the view")
	}
	if err := view.CheckConsistency(); err != nil {
		t.Errorf("view inconsistent after cancellations: %v", err)
	}
}

// stateCancelCtx is a context.Context whose Err flips to Canceled as soon as
// the probe reports true — used to cancel a Batch deterministically between
// two of its updates (the probe observes view state only the first update
// changes).
type stateCancelCtx struct {
	context.Context
	probe func() bool
}

func (c *stateCancelCtx) Err() error {
	if c.probe() {
		return context.Canceled
	}
	return nil
}

// TestBatchCancellationOpAttribution asserts that a cancelled Batch reports
// the update that did NOT run and wraps the error with that op — not with
// the last update that succeeded, and not with nothing when cancelled before
// the first op.
func TestBatchCancellationOpAttribution(t *testing.T) {
	u1 := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S51"), rxview.Str("One"))
	u2 := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S52"), rxview.Str("Two"))

	t.Run("cancelled before the first op", func(t *testing.T) {
		view := mustView(t, rxview.WithForceSideEffects())
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		reps, err := view.Batch(ctx, u1, u2)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(reps) != 1 || reps[0].Op != u1.String() || reps[0].Applied {
			t.Fatalf("reports = %+v, want one unapplied report for %q", reps, u1)
		}
		if !strings.Contains(err.Error(), u1.String()) {
			t.Errorf("error %q does not name the unprocessed op %q", err, u1)
		}
	})

	t.Run("cancelled mid-batch", func(t *testing.T) {
		view := mustView(t, rxview.WithForceSideEffects())
		rows := func() int {
			n := 0
			for _, tb := range view.DB().Tables() {
				n += tb.Rows
			}
			return n
		}
		before := rows()
		// Cancel once the database has grown — true only after u1's ΔR has
		// executed, so the first cancellation check that fires is the one
		// guarding u2.
		ctx := &stateCancelCtx{Context: context.Background(), probe: func() bool { return rows() > before }}
		reps, err := view.Batch(ctx, u1, u2)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(reps) != 2 {
			t.Fatalf("got %d reports, want 2 (applied u1 + unapplied u2)", len(reps))
		}
		if !reps[0].Applied || reps[0].Op != u1.String() {
			t.Errorf("first report = %+v, want applied %q", reps[0], u1)
		}
		if reps[1].Applied || reps[1].Op != u2.String() {
			t.Errorf("last report = %+v, want unapplied %q", reps[1], u2)
		}
		if !strings.Contains(err.Error(), u2.String()) {
			t.Errorf("error %q attributes the cancellation to the wrong op (want %q)", err, u2)
		}
		if strings.Contains(err.Error(), u1.String()) {
			t.Errorf("error %q names the successful op %q", err, u1)
		}
		// The applied prefix must have left consistent auxiliary structures.
		if err := view.CheckConsistency(); err != nil {
			t.Errorf("view inconsistent after mid-batch cancellation: %v", err)
		}
	})
}

// TestBatchEquivalence checks that Batch(u1..uN) produces exactly the final
// state of Apply(u1)..Apply(uN) — including through a mid-batch deletion —
// and that every maintained structure comes out exact (CheckConsistency).
func TestBatchEquivalence(t *testing.T) {
	ctx := context.Background()
	var updates []rxview.Update
	for i := 0; i < 20; i++ {
		updates = append(updates, rxview.Insert(`//course[cno="CS650"]/takenBy`,
			"student", rxview.Str(fmt.Sprintf("S6%02d", i)), rxview.Str(fmt.Sprintf("N%d", i))))
	}
	updates = append(updates,
		rxview.Insert(`.`, "course", rxview.Str("CS901"), rxview.Str("Batching")),
		rxview.Insert(`//course[cno="CS901"]/prereq`, "course", rxview.Str("CS902"), rxview.Str("Flushing")),
		rxview.Delete(`//course[cno="CS650"]//student[ssn="S602"]`),
		rxview.Insert(`//course[cno="CS902"]/takenBy`, "student", rxview.Str("S699"), rxview.Str("Last")),
	)

	seq := mustView(t, rxview.WithForceSideEffects())
	for i, u := range updates {
		if _, err := seq.Apply(ctx, u); err != nil {
			t.Fatalf("sequential update %d (%s): %v", i, u, err)
		}
	}

	bat := mustView(t, rxview.WithForceSideEffects())
	reports, err := bat.Batch(ctx, updates...)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(reports) != len(updates) {
		t.Fatalf("batch reports = %d, want %d", len(reports), len(updates))
	}
	for i, r := range reports {
		if !r.Applied {
			t.Errorf("batch update %d (%s) not applied", i, updates[i])
		}
	}

	if err := bat.CheckConsistency(); err != nil {
		t.Fatalf("batched view inconsistent: %v", err)
	}
	sx, err := seq.XML(1000000)
	if err != nil {
		t.Fatal(err)
	}
	bx, err := bat.XML(1000000)
	if err != nil {
		t.Fatal(err)
	}
	if sx != bx {
		t.Errorf("batch and sequential views differ:\n--- sequential ---\n%s\n--- batch ---\n%s", sx, bx)
	}
	if s, b := seq.Stats(), bat.Stats(); s != b {
		t.Errorf("stats differ: sequential %v vs batch %v", s, b)
	}
}

// TestBatchStopsAtFirstError checks the documented prefix semantics.
func TestBatchStopsAtFirstError(t *testing.T) {
	ctx := context.Background()
	view := mustView(t) // no forcing: the shared insert fails mid-batch
	good := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S71"), rxview.Str("Pre"))
	never := rxview.Insert(`//course[cno="CS240"]/takenBy`, "student", rxview.Str("S72"), rxview.Str("Post"))

	reports, err := view.Batch(ctx, good, sharedInsert, never)
	if !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("batch error = %v, want ErrSideEffect", err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2 (applied prefix + failed update)", len(reports))
	}
	if !reports[0].Applied || reports[1].Applied {
		t.Errorf("prefix semantics violated: %+v", reports)
	}
	if err := view.CheckConsistency(); err != nil {
		t.Fatalf("view inconsistent after failed batch: %v", err)
	}
	if got, _ := view.Query(ctx, `//student[ssn="S71"]`); len(got) == 0 {
		t.Error("prefix update was rolled back")
	}
	if got, _ := view.Query(ctx, `//student[ssn="S72"]`); len(got) != 0 {
		t.Error("suffix update ran after the failure")
	}

	// A malformed update mid-batch behaves the same way: the prefix before
	// it applies, the rest does not.
	pre := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S73"), rxview.Str("Pre2"))
	reports, err = view.Batch(ctx, pre, rxview.Delete(`//course[`), never)
	if !errors.Is(err, rxview.ErrParse) {
		t.Fatalf("batch with malformed update error = %v, want ErrParse", err)
	}
	if len(reports) != 2 || !reports[0].Applied || reports[1].Applied {
		t.Fatalf("parse-failure prefix semantics violated: %+v", reports)
	}
	if got, _ := view.Query(ctx, `//student[ssn="S73"]`); len(got) == 0 {
		t.Error("prefix update before the malformed one was not applied")
	}
	if err := view.CheckConsistency(); err != nil {
		t.Fatalf("view inconsistent after parse-failed batch: %v", err)
	}
}
