package rxview_test

// Tests of the transactional update API: atomic commit, read-your-writes
// staging, exact rollback, generation semantics, and the wire-stability of
// the public value types.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rxview"
)

// viewFingerprint captures everything the public surface exposes of the
// view + database state: the serialized view, the statistics line (base rows
// included), the per-table row counts and the generation.
func viewFingerprint(t *testing.T, v *rxview.View) string {
	t.Helper()
	xml, err := v.XML(500000)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d\nstats=%s\n", v.Generation(), v.Stats())
	for _, tb := range v.DB().Tables() {
		fmt.Fprintf(&b, "table %s=%d\n", tb.Name, tb.Rows)
	}
	b.WriteString(xml)
	return b.String()
}

// txGroup is a group exercising insertion, deletion after insertion and
// the GC cascade: a fresh course, a prereq under it, a deletion of an
// enrolled student occurrence, and a student under the fresh prereq.
func txGroup() []rxview.Update {
	return []rxview.Update{
		rxview.Insert(`.`, "course", rxview.Str("CS111"), rxview.Str("Intro")),
		rxview.Insert(`//course[cno="CS111"]/prereq`, "course", rxview.Str("CS112"), rxview.Str("Intro II")),
		rxview.Delete(`//course[cno="CS320"]//student[ssn="S02"]`),
		rxview.Insert(`//course[cno="CS112"]/takenBy`, "student", rxview.Str("S09"), rxview.Str("Ida")),
	}
}

func TestTxCommitIsOneGenerationAndStateEqualsApplies(t *testing.T) {
	ctx := context.Background()
	txView, seqView := mustView(t), mustView(t)
	group := txGroup()

	tx, err := txView.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range group {
		rep, err := tx.Stage(ctx, u)
		if err != nil {
			t.Fatalf("stage %d (%s): %v", i, u, err)
		}
		if !rep.Applied {
			t.Fatalf("stage %d (%s) did not apply", i, u)
		}
	}
	// Read-your-writes before Commit: the staged course is selectable.
	nodes, err := tx.Query(ctx, `//course[cno="CS111"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Fatalf("staged write invisible to Tx.Query: %v", nodes)
	}
	if err := tx.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil", err)
	}
	if txView.Generation() != 0 {
		t.Fatalf("generation moved before Commit: %d", txView.Generation())
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if txView.Generation() != 1 {
		t.Fatalf("generation = %d after Commit, want exactly 1", txView.Generation())
	}
	if got := len(tx.Reports()); got != len(group) {
		t.Fatalf("reports = %d, want %d", got, len(group))
	}

	for _, u := range group {
		if _, err := seqView.Apply(ctx, u); err != nil {
			t.Fatalf("apply %s: %v", u, err)
		}
	}
	txFP := strings.Replace(viewFingerprint(t, txView), "gen=1\n", "gen=*\n", 1)
	seqFP := strings.Replace(viewFingerprint(t, seqView), fmt.Sprintf("gen=%d\n", len(group)), "gen=*\n", 1)
	if txFP != seqFP {
		t.Fatalf("transaction state differs from sequential applies:\n--- tx ---\n%s\n--- seq ---\n%s", txFP, seqFP)
	}
	if err := txView.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTxSyntheticWorkloadDifferential(t *testing.T) {
	ctx := context.Background()
	mk := func() *rxview.View {
		syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: 150, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		v, err := rxview.Open(syn.ATG, syn.DB, rxview.WithForceSideEffects())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	txView, seqView := mk(), mk()
	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	stmts := append(syn.InsertWorkload(rxview.W2, 6, 99), syn.DeleteWorkload(rxview.W1, 2, 17)...)

	tx, err := txView.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	staged := 0
	for _, stmt := range stmts {
		if _, err := tx.Execute(ctx, stmt); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
		staged++
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range stmts {
		if _, err := seqView.Execute(ctx, stmt); err != nil {
			t.Fatalf("apply %q: %v", stmt, err)
		}
	}
	txFP := viewFingerprint(t, txView)
	seqFP := viewFingerprint(t, seqView)
	txFP = txFP[strings.Index(txFP, "stats="):]
	seqFP = seqFP[strings.Index(seqFP, "stats="):]
	if txFP != seqFP {
		t.Fatalf("synthetic differential mismatch after %d staged ops:\n--- tx ---\n%.600s\n--- seq ---\n%.600s", staged, txFP, seqFP)
	}
	if err := txView.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := seqView.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTxMiddleRejectionRestoresPreBeginState(t *testing.T) {
	ctx := context.Background()
	view := mustView(t) // side effects NOT forced: sharedInsert is rejected
	want := viewFingerprint(t, view)
	group := txGroup()

	tx, err := view.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, group[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, group[2]); err != nil { // a delete: M is mutated, then restored
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, sharedInsert); !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("staging the shared insert = %v, want ErrSideEffect", err)
	}
	if err := tx.Validate(); !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("Validate = %v, want the group rejection", err)
	}
	// Later stages are refused with the same rejection.
	if _, err := tx.Stage(ctx, group[3]); !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("stage after doom = %v", err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, rxview.ErrSideEffect) {
		t.Fatalf("Commit = %v, want the group rejection", err)
	}
	if got := viewFingerprint(t, view); got != want {
		t.Fatalf("state after rejected Commit differs from pre-Begin:\n--- got ---\n%.600s\n--- want ---\n%.600s", got, want)
	}
	if err := view.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTxRollbackRestoresPreBeginState(t *testing.T) {
	ctx := context.Background()
	view := mustView(t, rxview.WithForceSideEffects())
	want := viewFingerprint(t, view)

	tx, err := view.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range txGroup() {
		if _, err := tx.Stage(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := viewFingerprint(t, view); got != want {
		t.Fatal("state after Rollback differs from pre-Begin")
	}
	if err := view.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal("Rollback must be idempotent")
	}
	// The write path is released: a direct Apply works again.
	if _, err := view.Apply(ctx, txGroup()[0]); err != nil {
		t.Fatal(err)
	}
}

func TestTxParseFailureDoomsGroup(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)
	want := viewFingerprint(t, view)

	tx, err := view.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, txGroup()[0]); err != nil {
		t.Fatal(err)
	}
	bad := rxview.Delete("///[")
	if _, err := tx.Stage(ctx, bad); !errors.Is(err, rxview.ErrParse) {
		t.Fatalf("stage malformed = %v, want ErrParse", err)
	}
	var pe *rxview.ParseError
	if err := tx.Validate(); !errors.As(err, &pe) || pe.Op != bad.String() {
		t.Fatalf("Validate = %v, want ParseError naming %q", err, bad.String())
	}
	if err := tx.Commit(ctx); !errors.Is(err, rxview.ErrParse) {
		t.Fatalf("Commit = %v, want ErrParse", err)
	}
	if got := viewFingerprint(t, view); got != want {
		t.Fatal("doomed parse transaction left state changed")
	}
}

func TestTxLifecycleAndGuards(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)
	tx, err := view.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Begin(ctx); !errors.Is(err, rxview.ErrTxOpen) {
		t.Fatalf("second Begin = %v, want ErrTxOpen", err)
	}
	if _, err := view.Apply(ctx, txGroup()[0]); !errors.Is(err, rxview.ErrTxOpen) {
		t.Fatalf("Apply during tx = %v, want ErrTxOpen", err)
	}
	if _, err := view.Batch(ctx, txGroup()...); !errors.Is(err, rxview.ErrTxOpen) {
		t.Fatalf("Batch during tx = %v, want ErrTxOpen", err)
	}
	if _, err := view.Execute(ctx, `delete //course[cno="CS999"]`); !errors.Is(err, rxview.ErrTxOpen) {
		t.Fatalf("Execute during tx = %v, want ErrTxOpen", err)
	}
	// Reads stay available and see the staged state.
	if _, err := tx.Stage(ctx, txGroup()[0]); err != nil {
		t.Fatal(err)
	}
	if nodes, err := view.Query(ctx, `//course[cno="CS111"]`); err != nil || len(nodes) != 1 {
		t.Fatalf("View.Query during tx = %v, %v", nodes, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, rxview.ErrTxDone) {
		t.Fatalf("double Commit = %v, want ErrTxDone", err)
	}
	if _, err := tx.Stage(ctx, txGroup()[1]); !errors.Is(err, rxview.ErrTxDone) {
		t.Fatalf("Stage after Commit = %v, want ErrTxDone", err)
	}
	if _, err := tx.Execute(ctx, `delete //x`); !errors.Is(err, rxview.ErrTxDone) {
		t.Fatalf("Execute after Commit = %v, want ErrTxDone", err)
	}
}

// A prefix group (BeginBatch) is a sequence of independent updates sharing
// one commit: a rejected, malformed or canceled stage fails alone, with the
// verdict a lone Apply gives against the same state, and the group stays
// open for the next one.
func TestBeginBatchStagesStandAlone(t *testing.T) {
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	steps := []struct {
		ctx  context.Context
		u    rxview.Update
		want error // nil: applies
	}{
		{ctx, txGroup()[0], nil},
		{ctx, sharedInsert, rxview.ErrSideEffect},
		{ctx, rxview.Delete("///["), rxview.ErrParse},
		{canceled, txGroup()[1], context.Canceled},
		{ctx, txGroup()[1], nil}, // the canceled update, retried: reads the first stage's write
		{ctx, txGroup()[2], nil}, // a deletion rides the same group
	}

	view, oracle := mustView(t), mustView(t)
	tx, err := view.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.BeginBatch(); !errors.Is(err, rxview.ErrTxOpen) {
		t.Fatalf("second BeginBatch = %v, want ErrTxOpen", err)
	}
	if _, err := view.Apply(ctx, txGroup()[3]); !errors.Is(err, rxview.ErrTxOpen) {
		t.Fatalf("Apply during a prefix group = %v, want ErrTxOpen", err)
	}
	applied := 0
	for i, st := range steps {
		rep, err := tx.Stage(st.ctx, st.u)
		wantRep, wantErr := oracle.Apply(st.ctx, st.u)
		if !errors.Is(err, st.want) { // for want == nil: err must be nil
			t.Fatalf("stage %d (%s): err = %v, want %v", i, st.u, err, st.want)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) && !errors.Is(err, rxview.ErrParse) {
			// (A group names the member in a parse error; a lone Apply has
			// no need to.)
			t.Errorf("stage %d (%s): err = %v, a lone Apply gives %v", i, st.u, err, wantErr)
		}
		if rep.Applied != wantRep.Applied || rep.Applied != (st.want == nil) {
			t.Errorf("stage %d (%s): applied = %v, a lone Apply gives %v", i, st.u, rep.Applied, wantRep.Applied)
		}
		if rep.Applied {
			applied++
		}
		if got := view.Generation(); got != uint64(applied) {
			t.Fatalf("after stage %d: generation %d, want %d (one per applied update, as it stages)", i, got, applied)
		}
	}
	if tx.Validate() != nil || tx.Applied() != applied {
		t.Errorf("Validate = %v, Applied = %d; want nil, %d: nothing dooms a prefix group", tx.Validate(), tx.Applied(), applied)
	}
	if reps := tx.Reports(); len(reps) != len(steps) {
		t.Errorf("Reports has %d entries, want one per stage (%d)", len(reps), len(steps))
	} else {
		for i, rep := range reps {
			if rep.Op != steps[i].u.String() {
				t.Errorf("report %d is for %q, want %q", i, rep.Op, steps[i].u)
			}
		}
	}
	// Commit consults no context in prefix mode: the stages are applied.
	if err := tx.Commit(canceled); err != nil {
		t.Fatalf("Commit = %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback after Commit = %v, want a no-op", err)
	}
	if got, want := viewFingerprint(t, view), viewFingerprint(t, oracle); got != want {
		t.Errorf("prefix group diverged from sequential applies:\n--- group ---\n%s\n--- applies ---\n%s", got, want)
	}
	if err := view.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestTxNoOpGroupDoesNotAdvanceGeneration(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)
	tx, err := view.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Selects nothing: stages as a no-op, not an error.
	rep, err := tx.Stage(ctx, rxview.Delete(`//course[cno="NOPE"]`))
	if err != nil || rep.Applied {
		t.Fatalf("no-op stage = %+v, %v", rep, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if view.Generation() != 0 {
		t.Fatalf("no-op transaction advanced generation to %d", view.Generation())
	}
}

// Snapshot during an open transaction must fail loudly and clearly: an
// epoch can never expose staged-but-uncommitted state.
func TestSnapshotDuringTxPanicsClearly(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)
	tx, err := view.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Stage(ctx, txGroup()[0]); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Snapshot during open transaction did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "transaction") {
			t.Fatalf("panic message does not explain the cause: %v", r)
		}
	}()
	view.Snapshot()
}

// Values must round-trip through JSON across the full int64 range: decoding
// goes through json.Number, not float64.
func TestValueJSONRoundTripLargeInt(t *testing.T) {
	for _, v := range []rxview.Value{
		rxview.Int(1 << 60), rxview.Int(-(1 << 60) - 7), rxview.Int(0),
		rxview.Str("x"), rxview.Bool(true), rxview.Null(),
	} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back rxview.Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Kind() != v.Kind() || back.Num() != v.Num() || back.Text() != v.Text() {
			t.Fatalf("round-trip %s: got %s (%v)", v, back, back.Kind())
		}
	}
	var v rxview.Value
	if err := json.Unmarshal([]byte("1.5"), &v); err == nil {
		t.Fatal("fractional number accepted")
	}
}

// Satellite: a malformed update must be attributed to its member wherever
// it sits in the batch — leading included.
func TestBatchCompileErrorAttribution(t *testing.T) {
	ctx := context.Background()
	bad := rxview.Delete("///[")

	t.Run("leading", func(t *testing.T) {
		view := mustView(t)
		reps, err := view.Batch(ctx, bad, txGroup()[0])
		if !errors.Is(err, rxview.ErrParse) {
			t.Fatalf("err = %v, want ErrParse", err)
		}
		var pe *rxview.ParseError
		if !errors.As(err, &pe) || pe.Op != bad.String() {
			t.Fatalf("ParseError.Op = %v, want %q", err, bad.String())
		}
		if !strings.Contains(err.Error(), bad.String()) {
			t.Fatalf("error does not name the update: %v", err)
		}
		if len(reps) != 1 || reps[0].Op != bad.String() || reps[0].Applied {
			t.Fatalf("reports = %+v, want one unapplied report naming the bad update", reps)
		}
		if view.Generation() != 0 {
			t.Fatal("nothing should have applied")
		}
	})

	t.Run("mid-batch", func(t *testing.T) {
		view := mustView(t)
		good := txGroup()[0]
		reps, err := view.Batch(ctx, good, bad, txGroup()[1])
		if !errors.Is(err, rxview.ErrParse) {
			t.Fatalf("err = %v, want ErrParse", err)
		}
		var pe *rxview.ParseError
		if !errors.As(err, &pe) || pe.Op != bad.String() {
			t.Fatalf("ParseError.Op = %v, want %q", err, bad.String())
		}
		if len(reps) != 2 || reps[0].Op != good.String() || !reps[0].Applied {
			t.Fatalf("prefix reports = %+v", reps)
		}
		if reps[1].Op != bad.String() || reps[1].Applied {
			t.Fatalf("failing report = %+v", reps[1])
		}
		if view.Generation() != 1 {
			t.Fatalf("prefix not applied: generation = %d", view.Generation())
		}
	})
}

// Satellite: the wire names of Report, Timings and Mutation are stable
// documented json tags (Stats already had them).
func TestReportJSONFieldNames(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)
	rep, err := view.Apply(ctx, txGroup()[0])
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"op", "applied", "targets", "edges", "side_effects",
		"dv_inserts", "dv_deletes", "changes", "removed", "timings"} {
		if _, ok := m[key]; !ok {
			t.Errorf("Report JSON missing %q: %s", key, data)
		}
	}
	timings, ok := m["timings"].(map[string]any)
	if !ok {
		t.Fatalf("timings not an object: %s", data)
	}
	for _, key := range []string{"validate_ns", "eval_ns", "translate_ns",
		"x_to_dv_ns", "dv_to_dr_ns", "apply_ns", "maintain_ns"} {
		if _, ok := timings[key]; !ok {
			t.Errorf("Timings JSON missing %q: %s", key, data)
		}
	}
	changes, ok := m["changes"].([]any)
	if !ok || len(changes) == 0 {
		t.Fatalf("changes missing from %s", data)
	}
	mut, ok := changes[0].(map[string]any)
	if !ok {
		t.Fatal("mutation not an object")
	}
	for _, key := range []string{"table", "insert", "tuple"} {
		if _, ok := mut[key]; !ok {
			t.Errorf("Mutation JSON missing %q: %s", key, data)
		}
	}
	// Values marshal in native JSON form and round-trip.
	var back rxview.Mutation
	raw, _ := json.Marshal(rep.Changes[0])
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != rep.Changes[0].String() {
		t.Fatalf("mutation round-trip: %s != %s", back.String(), rep.Changes[0].String())
	}
}
