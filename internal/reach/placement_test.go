package reach

import (
	"fmt"
	"math/rand"
	"testing"

	"rxview/internal/cow"
	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

// swapOnly steps a second order over the same delta the way Fig.7 does, with
// no holes reused: every born node appended, every inserted edge repaired by
// swap(L, u, v).
func swapOnly(t *Topo, d *dag.DAG, delta []dag.DeltaOp) {
	for _, op := range delta {
		switch op.Kind {
		case dag.DeltaNodeAdd:
			t.Append(op.Node)
		case dag.DeltaNodeDel:
			t.Delete(op.Node)
		}
	}
	for _, op := range delta {
		if op.Kind == dag.DeltaEdgeAdd {
			t.FixEdge(d, op.Edge.Parent, op.Edge.Child)
		}
	}
}

// reachableFromL is Algorithm Reach in miniature: each node's descendants,
// gathered walking L children first, as the set of pairs (ancestor,
// descendant) rendered in id order. It is right only when L is.
func reachableFromL(t *Topo, d *dag.DAG) string {
	desc := make(map[dag.NodeID]map[dag.NodeID]bool)
	for _, x := range t.Nodes() {
		s := map[dag.NodeID]bool{}
		for _, c := range d.Children(x) {
			s[c] = true
			for y := range desc[c] {
				s[y] = true
			}
		}
		desc[x] = s
	}
	var out []string
	for _, x := range d.Nodes() {
		for _, y := range d.Nodes() {
			if desc[x][y] {
				out = append(out, fmt.Sprint(x, "→", y))
			}
		}
	}
	return fmt.Sprint(out)
}

// TestStepRandomSequences runs random insert and delete sequences through
// Step: subtrees published parents first and hung under several nodes,
// with old children and induced content born after the connection, edges
// between old nodes, and deltas spanning several inserts, as a replayed
// record does. After every delta L must validate, and Algorithm Reach over
// it must find the pairs it finds over the swap-only order.
func TestStepRandomSequences(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 30, 25)
		topo, swap := ComputeTopo(d), ComputeTopo(d)
		next := int64(1000)
		fresh := func() dag.NodeID {
			id, _ := d.AddNode("N", relational.Tuple{relational.Int(next)})
			next++
			return id
		}
		insert := func() {
			nodes := d.Nodes()
			targets := make([]dag.NodeID, 1+rng.Intn(3))
			for i := range targets {
				targets[i] = nodes[rng.Intn(len(nodes))]
			}
			root := fresh()
			sub := []dag.NodeID{root}
			for i := rng.Intn(4); i > 0; i-- {
				c := fresh()
				d.AddEdge(sub[rng.Intn(len(sub))], c)
				sub = append(sub, c)
			}
			if old := nodes[rng.Intn(len(nodes))]; old != d.Root() {
				cyclic := false
				for _, u := range targets {
					cyclic = cyclic || old == u || reaches(d, old, u)
				}
				if !cyclic {
					d.AddEdge(sub[rng.Intn(len(sub))], old)
				}
			}
			for _, u := range targets {
				d.AddEdge(u, root)
			}
			if rng.Intn(2) == 0 { // induced content, born after the connection
				d.AddEdge(sub[rng.Intn(len(sub))], fresh())
			}
		}
		for round := 0; round < 12; round++ {
			var removed []dag.NodeID
			delta := journaled(d, func() {
				switch rng.Intn(4) {
				case 0:
					nodes := d.Nodes()
					for _, cand := range rng.Perm(len(nodes)) {
						if ch := d.Children(nodes[cand]); len(ch) > 0 {
							u, v := nodes[cand], ch[rng.Intn(len(ch))]
							d.RemoveEdge(u, v)
							_, removed = topo.DeleteUpdate(d, []dag.Edge{{Parent: u, Child: v}})
							break
						}
					}
				case 1:
					nodes := d.Nodes()
					u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
					if u != v && v != d.Root() && !reaches(d, v, u) {
						d.AddEdge(u, v)
					}
				default:
					for i := 1 + rng.Intn(2); i > 0; i-- {
						insert()
					}
				}
			})
			if removed == nil {
				topo.InsertUpdate(d, delta)
			}
			swapOnly(swap, d, delta)
			if err := testkit.CheckAcyclic(d); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			for name, o := range map[string]*Topo{"step": topo, "swap": swap} {
				if err := o.Validate(d); err != nil {
					t.Fatalf("seed %d round %d: %s: %v", seed, round, name, err)
				}
			}
			if got, want := reachableFromL(topo, d), reachableFromL(swap, d); got != want {
				t.Fatalf("seed %d round %d: reachable pairs over L differ from the swap-only order's:\n%s\n%s", seed, round, got, want)
			}
		}
	}
}

// TestValueInsertCopiesFewChunks: a subtree hung under 40 targets spread over
// L, into the holes the same subtree left when a delete took it away, writes
// into at most 3 chunks of L after a seal, so that a sealed epoch keeps
// sharing the rest; placed by swap(L, u, v) alone it rewrites most of L's
// 1 376.
func TestValueInsertCopiesFewChunks(t *testing.T) {
	// root → 2 000 nodes → 10 leaves each: 22 001 entries, the leaves first.
	// The targets are leaves 500 apart, so they span L.
	d := dag.New("db")
	n := int64(0)
	node := func() dag.NodeID {
		id, _ := d.AddNode("N", relational.Tuple{relational.Int(n)})
		n++
		return id
	}
	var targets []dag.NodeID
	for i := 0; i < 2000; i++ {
		m := node()
		d.AddEdge(d.Root(), m)
		for k := 0; k < 10; k++ {
			leaf := node()
			d.AddEdge(m, leaf)
			if (i*10+k)%500 == 250 {
				targets = append(targets, leaf)
			}
		}
	}
	// A fresh subtree of 5, born parents first, hung under every target.
	var r dag.NodeID
	publish := func() {
		r = node()
		for k := 0; k < 4; k++ {
			d.AddEdge(r, node())
		}
		for _, u := range targets {
			d.AddEdge(u, r)
		}
	}
	unhang := func(topo *Topo) {
		var ep []dag.Edge
		for _, u := range targets {
			d.RemoveEdge(u, r)
			ep = append(ep, dag.Edge{Parent: u, Child: r})
		}
		topo.DeleteUpdate(d, ep)
	}

	for _, c := range []struct {
		name  string
		place func(*Topo, []dag.DeltaOp)
		check func(changed int) error
	}{
		{"step", func(topo *Topo, delta []dag.DeltaOp) { topo.InsertUpdate(d, delta) }, func(changed int) error {
			if changed > 3 {
				return fmt.Errorf("%d chunks written, want ≤ 3", changed)
			}
			return nil
		}},
		{"swap", func(topo *Topo, delta []dag.DeltaOp) { swapOnly(topo, d, delta) }, func(changed int) error {
			if changed < 80 {
				return fmt.Errorf("%d chunks written: not the cost this test is about", changed)
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d.Begin()
			defer d.Rollback()
			topo := ComputeTopo(d)
			// The same insert and its delete first: they leave the holes.
			mark := d.Mark()
			publish()
			topo.InsertUpdate(d, d.DeltaSince(mark))
			unhang(topo)

			before := topo.Seal().list
			mark = d.Mark()
			publish()
			c.place(topo, d.DeltaSince(mark))
			if err := topo.Validate(d); err != nil {
				t.Fatal(err)
			}
			after := topo.Seal().list
			changed := 0
			for i := 0; i < before.Len(); i += cow.ChunkSize {
				if !before.SameChunk(after, i) {
					changed++
				}
			}
			total := (before.Len() + cow.ChunkSize - 1) / cow.ChunkSize
			if err := c.check(changed); err != nil {
				t.Fatalf("%s, of %d", err, total)
			}
			t.Logf("%d of %d chunks written", changed, total)
		})
	}
}
