package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/paper"
	"rxview/internal/testkit"
	"rxview/internal/update"
	"rxview/internal/workload"
)

// maintenanceOracle follows one system through a random sequence of write
// units and checks, after every unit, everything ∆(M,L) is responsible for —
// on both sides of the split. The system's side: the DAG is the
// republication of the database, the translator's source index matches a
// rebuild (both inside CheckConsistency), and the live nodes are exactly the
// ones a plain DFS from the root reaches. The experiments' side: an order L
// and a reachability matrix kept from nothing but the commit records —
// tapped by an in-memory sink, the way internal/bench does it — are a
// topological order of the DAG and its closure, equal to both from-scratch
// oracles, mirror intact. A rolled-back unit emits no record, so both must
// still be exact for the restored state. And
// the state digest's side: stepped over each commit's record, it equals the
// full pass over the state after every unit — applied, rejected (it must not
// have moved: group compares the fingerprint, which carries it), rolled back,
// or resurrecting a dead identity.
type maintenanceOracle struct {
	t     *testing.T
	s     *System
	topo  *paper.Topo
	m     *paper.Matrix
	delta []dag.DeltaOp
}

func newMaintenanceOracle(t *testing.T, s *System) *maintenanceOracle {
	topo := paper.ComputeTopo(s.DAG)
	o := &maintenanceOracle{t: t, s: s, topo: topo, m: paper.Compute(s.DAG, topo)}
	s.StartDigest()
	s.SetCommitSink(func(recs []CommitRecord) error {
		for _, r := range recs {
			o.delta = append(o.delta, r.Delta...)
		}
		return nil
	}, nil)
	return o
}

func (o *maintenanceOracle) check(unit string) {
	o.t.Helper()
	s := o.s
	if err := s.CheckConsistency(); err != nil {
		o.t.Fatalf("%s: %v", unit, err)
	}
	if got, want := s.digest, digest.Of(s.DAG, s.DB); got != want {
		o.t.Fatalf("%s: incremental digest %s, a full pass over the state says %s", unit, got, want)
	}
	reachable := testkit.Reachable(s.DAG)
	for id := 0; id < s.DAG.Cap(); id++ {
		if alive := s.DAG.Alive(dag.NodeID(id)); alive != reachable[id] {
			o.t.Fatalf("%s: node %d alive=%v but reachable from the root=%v", unit, id, alive, reachable[id])
		}
	}
	o.topo.ApplyDelta(s.DAG, o.delta)
	o.m.ApplyDelta(s.DAG, o.topo, o.delta)
	o.delta = o.delta[:0]
	if err := o.topo.Validate(s.DAG); err != nil {
		o.t.Fatalf("%s: delta-stepped L: %v", unit, err)
	}
	if err := o.m.ValidateMirror(); err != nil {
		o.t.Fatalf("%s: %v", unit, err)
	}
	if want := paper.Compute(s.DAG, o.topo); !o.m.Equal(want) {
		o.t.Fatalf("%s: delta-maintained M differs from Compute: %s", unit, o.m.Diff(want))
	}
	if sp := paper.ComputeSparse(s.DAG); !o.m.EqualSparse(sp) {
		o.t.Fatalf("%s: delta-maintained M differs from the sparse oracle: %s", unit, o.m.DiffSparse(sp))
	}
}

// apply runs one statement as a one-shot unit. For a deletion it first
// works out, on a copy of the DAG, which nodes a DFS from the root stops
// reaching once Ep(r) is gone, and afterwards compares them with the nodes
// the system collected.
func (o *maintenanceOracle) apply(stmt string) {
	o.t.Helper()
	s := o.s
	op, err := update.ParseStatement(s.ATG, stmt)
	if err != nil {
		o.t.Fatalf("%s: %v", stmt, err)
	}
	var want []dag.NodeID
	if op.Kind == update.OpDelete {
		res, err := s.Eval(op.Path)
		if err != nil {
			o.t.Fatalf("%s: %v", stmt, err)
		}
		pruned := testkit.Must(dag.DecodeState(s.DAG.AppendState(nil, nil)))
		for _, e := range res.Edges {
			pruned.RemoveEdge(e.Parent, e.Child)
		}
		for id, ok := range testkit.Reachable(pruned) {
			if !ok && s.DAG.Alive(dag.NodeID(id)) {
				want = append(want, dag.NodeID(id))
			}
		}
	}
	before, sumBefore := s.DAG.Nodes(), s.digest
	rep, err := s.Apply(op)
	if err != nil && !benignRejection(err) {
		o.t.Fatalf("%s: %v", stmt, err)
	}
	if !rep.Applied && s.digest != sumBefore {
		o.t.Fatalf("%s: not applied (%v), yet the digest moved from %s to %s", stmt, err, sumBefore, s.digest)
	}
	if op.Kind == update.OpDelete && rep.Applied {
		var got []dag.NodeID
		for _, id := range before {
			if !s.DAG.Alive(id) {
				got = append(got, id)
			}
		}
		if !slices.Equal(got, want) || rep.Removed != len(want) {
			o.t.Fatalf("%s: collected %v (report says %d), a DFS loses %v", stmt, got, rep.Removed, want)
		}
	}
	o.check(stmt)
}

// group stages the statements as one atomic transaction and commits it or
// rolls it back; a rejected member dooms the group either way.
func (o *maintenanceOracle) group(stmts []string, commit bool) {
	o.t.Helper()
	ctx := context.Background()
	before := stateFingerprint(o.s)
	tx, err := o.s.Begin(true)
	if err != nil {
		o.t.Fatal(err)
	}
	for _, stmt := range stmts {
		op, err := update.ParseStatement(o.s.ATG, stmt)
		if err != nil {
			o.t.Fatalf("%s: %v", stmt, err)
		}
		if _, err := tx.Stage(ctx, op); err != nil && !benignRejection(err) {
			o.t.Fatalf("stage %s: %v", stmt, err)
		}
	}
	unit := fmt.Sprintf("rollback of %q", stmts)
	if commit {
		unit = fmt.Sprintf("commit of %q", stmts)
		err = tx.Commit(ctx)
	} else {
		err = tx.Rollback()
	}
	if err != nil && !benignRejection(err) {
		o.t.Fatalf("%s: %v", unit, err)
	}
	if !commit || err != nil {
		if got := stateFingerprint(o.s); got != before {
			o.t.Fatalf("%s left a trace:\n%s\nvs\n%s", unit, got, before)
		}
	}
	o.check(unit)
}

// benignRejection: the update is untranslatable, or structurally refused (a
// cycle, a title that exists with other attributes) — legitimate outcomes of
// a random statement; anything else is a bug.
func benignRejection(err error) bool {
	if IsRejected(err) || IsSideEffect(err) {
		return true
	}
	for _, sub := range []string{"cycle", "cannot insert", "attribute has"} {
		if strings.Contains(err.Error(), sub) {
			return true
		}
	}
	return false
}

// TestMaintenanceRandomSequences drives the registrar and the synthetic view
// through random W1/W2/W3-style insertions and deletions — one-shot units,
// committed atomic groups and rolled-back ones — under maintenanceOracle.
func TestMaintenanceRandomSequences(t *testing.T) {
	t.Run("registrar", func(t *testing.T) {
		courses := []string{"CS650", "CS320", "CS240", "CS501", "CS502", "CS503"}
		students := []string{"S01", "S02", "S11", "S12"}
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			o := newMaintenanceOracle(t, openRegistrar(t, Options{ForceSideEffects: true}))
			stmt := func() string {
				c, c2 := courses[rng.Intn(len(courses))], courses[rng.Intn(len(courses))]
				s := students[rng.Intn(len(students))]
				switch rng.Intn(6) {
				case 0:
					return fmt.Sprintf(`insert course(cno="%s", title="T%s") into .`, c, c)
				case 1:
					return fmt.Sprintf(`insert course(cno="%s", title="T%s") into //course[cno="%s"]/prereq`, c, c, c2)
				case 2:
					return fmt.Sprintf(`insert student(ssn="%s", name="N%s") into //course[cno="%s"]/takenBy`, s, s, c)
				case 3:
					return fmt.Sprintf(`delete //course[cno="%s"]/prereq/course[cno="%s"]`, c2, c)
				case 4:
					return fmt.Sprintf(`delete //course[cno="%s"]//student[ssn="%s"]`, c, s)
				default:
					return fmt.Sprintf(`delete //course[cno="%s"]`, c)
				}
			}
			for step := 0; step < 30; step++ {
				switch rng.Intn(4) {
				case 0:
					o.group([]string{stmt(), stmt(), stmt()}, true)
				case 1:
					o.group([]string{stmt(), stmt()}, false)
				default:
					o.apply(stmt())
				}
			}
		}
	})
	t.Run("synthetic", func(t *testing.T) {
		syn, s := openSynthetic(t, 160, 21)
		o := newMaintenanceOracle(t, s)
		rng := rand.New(rand.NewSource(21))
		// The generators read the live database, so every statement
		// addresses the view as it is when it runs.
		stmt := func() string {
			class := workload.Class(1 + rng.Intn(3))
			var ops []workload.Op
			if rng.Intn(2) == 0 {
				ops = syn.InsertWorkload(class, 1, rng.Int63())
			} else {
				ops = syn.DeleteWorkload(class, 1, rng.Int63())
			}
			if len(ops) == 0 {
				t.Fatalf("no %s statement left to generate", class)
			}
			return ops[0].Stmt
		}
		for step := 0; step < 24; step++ {
			switch rng.Intn(4) {
			case 0:
				o.group([]string{stmt(), stmt()}, true)
			case 1:
				o.group([]string{stmt(), stmt()}, false)
			default:
				o.apply(stmt())
			}
		}
	})
}

// TestReplayIsOneLoop: a follower fed a record stream one ApplyCommitRecord
// at a time and a primary recovered from the checkpoint that precedes the
// same stream go through the same loop, so they end bit-identical — DAG
// state bytes, generation — and equal to the system that produced the
// records.
func TestReplayIsOneLoop(t *testing.T) {
	ctx := context.Background()
	primary := openRegistrar(t, Options{ForceSideEffects: true})
	follower := openRegistrar(t, Options{ForceSideEffects: true})
	// The checkpoint both replays start from: the state at generation 0.
	ckpt := openRegistrar(t, Options{ForceSideEffects: true})
	ckptDAG, err := dag.DecodeState(ckpt.DAG.AppendState(nil, nil))
	if err != nil {
		t.Fatal(err)
	}

	// All three keep a state digest, so every replayed record is also held
	// to the digest the primary stamped on it.
	primary.StartDigest()
	follower.StartDigest()
	ckptSum := digest.Of(ckptDAG, ckpt.DB)

	var stream []CommitRecord
	primary.SetCommitSink(func(recs []CommitRecord) error {
		stream = append(stream, recs...)
		return nil
	}, nil)
	for _, stmt := range []string{
		`insert course(cno="CS111", title="Intro") into .`,
		`insert course(cno="CS111", title="Intro") into //course[cno="CS320"]/prereq`,
		`delete //course[cno="CS320"]/prereq/course[cno="CS111"]`,
	} {
		if _, err := primary.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	tx, err := primary.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range txGroup {
		if _, err := tx.Stage(ctx, mustOp(t, primary, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Execute(`delete //course[cno="CS111"]`); err != nil {
		t.Fatal(err)
	}

	for _, rec := range stream {
		if err := follower.ApplyCommitRecord(rec); err != nil {
			t.Fatalf("follower: generation %d: %v", rec.Gen, err)
		}
	}
	recovered, err := Recover(ckpt.ATG, ckpt.DB, ckptDAG, 0, ckptSum, stream, Options{ForceSideEffects: true})
	if err != nil {
		t.Fatal(err)
	}

	want := stateFingerprint(primary)
	for name, s := range map[string]*System{"follower": follower, "recovered": recovered} {
		if got := stateFingerprint(s); got != want {
			t.Errorf("%s diverged from the primary:\n%s\nvs\n%s", name, got, want)
		}
		if !slices.Equal(s.DAG.AppendState(nil, nil), primary.DAG.AppendState(nil, nil)) {
			t.Errorf("%s: DAG state bytes differ from the primary's", name)
		}
		if err := s.CheckConsistency(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// A record that does not continue the generation is refused by both.
	gap := []CommitRecord{{Gen: 2}}
	if _, err := Recover(ckpt.ATG, ckpt.DB, ckptDAG, 0, ckptSum, gap, Options{}); err == nil {
		t.Error("recovery replayed across a generation gap")
	}
}
