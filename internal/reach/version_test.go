package reach

import (
	"fmt"
	"math/rand"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
)

// TestTopoSealStability drives random DAG growth and shrinkage through the
// incremental maintenance path, sealing a TopoVersion at every step; every
// sealed version must keep rendering the exact node sequence it was sealed
// with, across later appends, tombstones, window rewrites (FixEdge) and
// compactions.
func TestTopoSealStability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := dag.New("db")
	topo := ComputeTopo(d)

	var live []dag.NodeID
	live = append(live, d.Root())

	type sealed struct {
		tv   *TopoVersion
		want string
	}
	var seals []sealed
	render := func(o Order) string { return fmt.Sprint(o.Nodes(), o.Len()) }

	for step := 0; step < 1200; step++ {
		if rng.Intn(3) > 0 || len(live) < 3 {
			// Insert a fresh node under a random live parent.
			p := live[rng.Intn(len(live))]
			var id dag.NodeID
			topo.InsertUpdate(d, journaled(d, func() {
				id, _ = d.AddNode("C", relational.Tuple{relational.Int(int64(step))})
				d.AddEdge(p, id)
			}))
			live = append(live, id)
		} else {
			// Delete a random leaf-ward edge through the maintenance path,
			// which tombstones unreachable nodes (and eventually compacts).
			v := live[1+rng.Intn(len(live)-1)]
			ps := d.Parents(v)
			if len(ps) == 0 {
				continue
			}
			p := ps[rng.Intn(len(ps))]
			d.RemoveEdge(p, v)
			_, removed := topo.DeleteUpdate(d, []dag.Edge{{Parent: p, Child: v}})
			if len(removed) > 0 {
				dead := map[dag.NodeID]bool{}
				for _, r := range removed {
					dead[r] = true
				}
				keep := live[:0]
				for _, id := range live {
					if !dead[id] {
						keep = append(keep, id)
					}
				}
				live = keep
			}
		}
		if step%17 == 0 {
			tv := topo.Seal()
			seals = append(seals, sealed{tv: tv, want: render(tv)})
		}
	}
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
	for i, s := range seals {
		if got := render(s.tv); got != s.want {
			t.Fatalf("sealed topo %d drifted:\nat seal: %s\nnow:     %s", i, s.want, got)
		}
	}
}

// TestTopoSealMatchesClone checks Seal and Clone agree at the same instant.
func TestTopoSealMatchesClone(t *testing.T) {
	d := dag.New("db")
	prev := d.Root()
	topo := ComputeTopo(d)
	for i := 0; i < 700; i++ {
		topo.InsertUpdate(d, journaled(d, func() {
			id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
			d.AddEdge(prev, id)
			prev = id
		}))
	}
	tv := topo.Seal()
	cl := topo.Clone()
	if fmt.Sprint(tv.Nodes()) != fmt.Sprint(cl.Nodes()) || tv.Len() != cl.Len() {
		t.Fatalf("seal and clone disagree: %d vs %d entries", tv.Len(), cl.Len())
	}
}
