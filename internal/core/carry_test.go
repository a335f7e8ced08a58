package core

import (
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/xpath"
)

// TestDeltaKeepsEachRule holds each rule of Delta.Keeps, and the predecessor
// check of DeltaFrom, to a case it alone decides: the DAG here is built by
// hand, so a commit can kill a node that has no edge to remove, which no
// committed view state does.
func TestDeltaKeepsEachRule(t *testing.T) {
	d := dag.New("db")
	node := func(typ, text string) dag.NodeID {
		id, _ := d.AddNode(typ, relational.Tuple{relational.Str(text)})
		return id
	}
	a, b, lone, dead := node("a", "1"), node("k", "x"), node("k", "lone"), node("k", "dead")
	d.AddEdge(d.Root(), a)
	d.AddEdge(a, b)
	d.RemoveNode(dead)
	snap := func() *Snapshot {
		v := d.Seal()
		return &Snapshot{dag: v, text: func(id dag.NodeID) (string, bool) { return v.Attr(id)[0].S, true }}
	}
	commit := func(mutate func()) (*Snapshot, *Snapshot) {
		before := snap()
		d.Begin()
		mutate()
		d.Commit()
		return before, snap()
	}
	other := node("a", "2") // read by nothing below
	for _, tc := range []struct {
		name   string
		mutate func()
		reads  Reads
		keeps  bool
	}{
		{"an edge op under a read child list", func() { d.AddEdge(a, other) },
			Reads{children: []dag.NodeID{a}}, false},
		{"an edge op into a read parent list", func() { d.RemoveEdge(a, other) },
			Reads{parents: []dag.NodeID{other}}, false},
		{"an edge op elsewhere", func() { d.AddEdge(d.Root(), other) },
			Reads{children: []dag.NodeID{a}, parents: []dag.NodeID{b}}, true},
		{"a read node killed", func() { d.RemoveNode(lone) },
			Reads{children: []dag.NodeID{lone}}, false},
		{"a read node born again", func() { d.AddNode("k", relational.Tuple{relational.Str("lone")}) },
			Reads{parents: []dag.NodeID{lone}}, false},
		{"a birth a probe finds", func() { d.AddNode("k", relational.Tuple{relational.Str("dead")}) },
			Reads{probes: []probe{{typ: "k", text: "dead"}}}, false},
		{"a birth a scan of its type finds", func() { node("k", "new") },
			Reads{probes: []probe{{typ: "k", anyText: true}}}, false},
		{"a birth no probe finds", func() { node("k", "newer") },
			Reads{probes: []probe{{typ: "k", text: "x"}, {typ: "a", anyText: true}}}, true},
	} {
		before, after := commit(tc.mutate)
		delta, ok := after.DeltaFrom(before)
		if !ok {
			t.Fatalf("%s: no ΔV", tc.name)
		}
		if got := delta.Keeps(&tc.reads); got != tc.keeps {
			t.Errorf("%s: Keeps = %v, want %v", tc.name, got, tc.keeps)
		}
	}
	s1 := snap()
	if delta, ok := snap().DeltaFrom(s1); !ok || delta.Keeps(nil) {
		t.Error("reads too many to keep are kept")
	}
	first, _ := commit(func() {})
	second, third := commit(func() {})
	if _, ok := third.DeltaFrom(first); ok {
		t.Error("a ΔV from a snapshot with another between")
	}
	if _, ok := first.DeltaFrom(second); ok {
		t.Error("a ΔV backwards")
	}
}

// TestSelectReadsRecords: a recorded evaluation selects what Select does
// and keeps what it read — the seed probe, the seeds' parent lists, the
// child lists below the anchor — and nothing past readCap.
func TestSelectReadsRecords(t *testing.T) {
	s := openRegistrar(t, Options{})
	sn := s.Snapshot()
	for _, path := range []string{`//course[cno="CS650"]/takenBy/student`, `//student[ssn="nobody"]`, `//course`} {
		p, err := ParsePath(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sn.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		got, reads, err := sn.SelectReads(p)
		if err != nil || got.Route != want.Route || len(got.Selected) != len(want.Selected) {
			t.Fatalf("%s: recorded %v %v, unrecorded %v", path, got, err, want)
		}
		if reads == nil {
			t.Fatalf("%s: the registrar's reads were not kept", path)
		}
		switch want.Route {
		case xpath.RouteDown:
			if len(reads.probes) != 1 || reads.probes[0].anyText {
				t.Errorf("%s: probes %v, want one (type, text) probe", path, reads.probes)
			}
		case xpath.RouteSweep:
			if len(reads.children) < sn.dag.NumNodes() {
				t.Errorf("%s: a sweep read %d child lists of %d nodes", path, len(reads.children), sn.dag.NumNodes())
			}
		}
	}
	_, big := openSynthetic(t, 2000, 3)
	p, err := ParsePath(`//C`)
	if err != nil {
		t.Fatal(err)
	}
	if _, reads, err := big.Snapshot().SelectReads(p); err != nil || reads != nil {
		t.Fatalf("a sweep over %d nodes kept its reads (err %v)", big.DAG.NumNodes(), err)
	}
}
