package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/fault"
	"rxview/internal/relational"
)

// TestDigestFollowsMemoryWhenTheSinkRefuses: the digest is the digest of the
// in-memory state, whatever became of the record. A prefix group whose sink
// refused keeps its applied stages, so the digest has advanced over them; an
// atomic group whose sink refused is rolled back, and the digest with it.
// (TestMaintenanceRandomSequences holds the digest to the full pass after
// every other kind of unit.)
func TestDigestFollowsMemoryWhenTheSinkRefuses(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{ForceSideEffects: true})
	s.StartDigest()
	refused := errors.New("disk full")
	s.SetCommitSink(func([]CommitRecord) error { return refused }, nil)
	start := s.digest

	tx, err := s.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range txGroup[:2] {
		if _, err := tx.Stage(ctx, mustOp(t, s, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	if err := tx.Commit(ctx); !errors.Is(err, refused) {
		t.Fatalf("commit of a prefix group over a refusing sink: %v", err)
	}
	if s.Generation() != 2 || s.digest == start {
		t.Fatalf("generation %d, digest %s: the applied stages did not advance them", s.Generation(), s.digest)
	}
	if want := digest.Of(s.DAG, s.DB); s.digest != want {
		t.Fatalf("digest %s after the refused prefix group, a full pass says %s", s.digest, want)
	}

	kept := s.digest
	atx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atx.Stage(ctx, mustOp(t, s, txGroup[2])); err != nil {
		t.Fatal(err)
	}
	if err := atx.Commit(ctx); !errors.Is(err, refused) {
		t.Fatalf("commit of an atomic group over a refusing sink: %v", err)
	}
	if s.digest != kept || s.digest != digest.Of(s.DAG, s.DB) {
		t.Fatalf("digest %s after the rolled-back group, want %s", s.digest, kept)
	}
}

// TestApplyCommitRecordStopsAtTheFirstWrongGeneration: a record that replays
// cleanly but leaves another state than the one its digest names — here one
// that lost a ΔR mutation, and one that lost its last delta op — is refused at
// its own generation, with both digests in the error. A record whose ΔR the
// base relations refuse (an injected storage.apply) is refused before it
// changes anything, and the same record applies on the next call.
func TestApplyCommitRecordStopsAtTheFirstWrongGeneration(t *testing.T) {
	primary := openRegistrar(t, Options{ForceSideEffects: true})
	primary.StartDigest()
	var stream []CommitRecord
	primary.SetCommitSink(func(recs []CommitRecord) error {
		stream = append(stream, recs...)
		return nil
	}, nil)
	for _, stmt := range txGroup[:3] {
		if _, err := primary.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	damage := map[string]func(*CommitRecord){
		"a dropped mutation": func(r *CommitRecord) { r.DR = r.DR[:len(r.DR)-1] },
		"a dropped delta op": func(r *CommitRecord) { r.Delta = r.Delta[:len(r.Delta)-1] },
	}
	for name, drop := range damage {
		follower := openRegistrar(t, Options{ForceSideEffects: true})
		follower.StartDigest()
		if err := follower.ApplyCommitRecord(stream[0]); err != nil {
			t.Fatal(err)
		}
		bad := stream[1]
		drop(&bad)
		err := follower.ApplyCommitRecord(bad)
		var mm *digest.MismatchError
		if !errors.As(err, &mm) || mm.Want != stream[1].Digest || mm.Got == mm.Want {
			t.Fatalf("%s: %v, want a digest mismatch against %s", name, err, stream[1].Digest)
		}
		if !strings.Contains(err.Error(), "generation 2") || follower.Generation() != 1 {
			t.Fatalf("%s: %v at generation %d, want it stopped at generation 2", name, err, follower.Generation())
		}
	}

	follower := openRegistrar(t, Options{ForceSideEffects: true})
	follower.StartDigest()
	plan, err := fault.NewPlan(1, fault.Rule{Point: fault.StorageApply, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(plan)
	t.Cleanup(fault.Uninstall)
	before := stateFingerprint(follower)
	if err := follower.ApplyCommitRecord(stream[0]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("replay under storage.apply: %v, want the injected failure", err)
	}
	if got := stateFingerprint(follower); got != before {
		t.Fatalf("the refused record left a trace:\n%s\nvs\n%s", got, before)
	}
	if err := follower.ApplyCommitRecord(stream[0]); err != nil || follower.Generation() != 1 {
		t.Fatalf("the same record once the fault is spent: %v at generation %d", err, follower.Generation())
	}
}

// TestEquivalentDAGsNamesTheDifference: each of the four ways two views can
// differ is reported by the key of the node or edge at fault, from the side
// that has it.
func TestEquivalentDAGsNamesTheDifference(t *testing.T) {
	build := func(edit func(d *dag.DAG, a, b dag.NodeID)) *dag.DAG {
		d := dag.New("db")
		a, _ := d.AddNode("course", relational.Tuple{relational.Str("CS1")})
		b, _ := d.AddNode("course", relational.Tuple{relational.Str("CS2")})
		d.AddEdge(d.Root(), a)
		d.AddEdge(a, b)
		if edit != nil {
			edit(d, a, b)
		}
		return d
	}
	extraNode := func(d *dag.DAG, a, _ dag.NodeID) {
		c, _ := d.AddNode("course", relational.Tuple{relational.Str("CS3")})
		d.AddEdge(a, c)
	}
	extraEdge := func(d *dag.DAG, _, b dag.NodeID) { d.AddEdge(d.Root(), b) }
	base := build(nil)
	// The same view under other ids is equivalent.
	renumbered := dag.New("db")
	b, _ := renumbered.AddNode("course", relational.Tuple{relational.Str("CS2")})
	a, _ := renumbered.AddNode("course", relational.Tuple{relational.Str("CS1")})
	renumbered.AddEdge(a, b)
	renumbered.AddEdge(renumbered.Root(), a)
	if err := EquivalentDAGs(base, renumbered); err != nil {
		t.Errorf("renumbered view: %v", err)
	}
	for _, c := range []struct {
		a, b *dag.DAG
		want string
	}{
		{build(extraNode), base, "node course((CS3)) missing from republished view"},
		{base, build(extraNode), "node course((CS3)) missing from maintained view"},
		{build(extraEdge), base, "edge db(())→course((CS2)) missing from republished view"},
		{base, build(extraEdge), "edge db(())→course((CS2)) missing from maintained view"},
	} {
		if err := EquivalentDAGs(c.a, c.b); err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %s", err, c.want)
		}
	}
}
