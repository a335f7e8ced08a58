package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rxview/internal/cow"
	"rxview/internal/relational"
)

// versionState renders everything a Version exposes into a comparable
// value, through the shared read surface so DAG clones and sealed versions
// render identically (NodesOfType sits outside Reader; see its comment).
func versionState(d interface {
	Reader
	NodesOfType(string) []NodeID
}) string {
	out := fmt.Sprintf("root=%d cap=%d nodes=%d edges=%d\n", d.Root(), d.Cap(), d.NumNodes(), d.NumEdges())
	for _, id := range d.Nodes() {
		out += fmt.Sprintf("%d %s(%s) ch=%v par=%v\n",
			id, d.Type(id), d.Attr(id), d.Children(id), d.Parents(id))
	}
	for _, typ := range []string{"db", "C", "D"} {
		out += fmt.Sprintf("%s: %v\n", typ, d.NodesOfType(typ))
	}
	return out
}

// TestSealAliasing drives a random mutation sequence, sealing a version
// at every step and checking that it renders exactly like the live DAG it
// sealed; at the end every sealed version must still render the same — no
// later write may leak into a sealed epoch through shared chunks or rows.
func TestSealAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := New("db")
	var ids []NodeID
	ids = append(ids, d.Root())

	type pair struct {
		v     *Version
		state string
	}
	var pairs []pair

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // add node (+ sometimes resurrect an old identity)
			id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(rng.Intn(60)))})
			ids = append(ids, id)
		case op < 8: // add edge
			// Parent = larger id: ids are created in order, so these edges
			// can never close a cycle.
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if u < v {
				d.AddEdge(v, u)
			} else if u != v {
				d.AddEdge(u, v)
			}
		case op < 9: // remove an edge: exercises the in-place row compaction
			u := ids[rng.Intn(len(ids))]
			if d.Alive(u) {
				if ch := d.Children(u); len(ch) > 0 {
					d.RemoveEdge(u, ch[rng.Intn(len(ch))])
				}
			}
		default: // remove a node: flips alive, clears rows, feeds resurrection
			u := ids[rng.Intn(len(ids))]
			if u != d.Root() {
				d.RemoveNode(u)
			}
		}
		if step%20 == 0 {
			v := d.Seal()
			p := pair{v: v, state: versionState(v)}
			if want := versionState(d); want != p.state {
				t.Fatalf("sealed version %d disagrees with the live DAG it sealed:\nlive:\n%s\nversion:\n%s", len(pairs), want, p.state)
			}
			pairs = append(pairs, p)
		}
	}

	for i, p := range pairs {
		if got := versionState(p.v); got != p.state {
			t.Fatalf("sealed version %d drifted after later writes:\nat seal:\n%s\nnow:\n%s", i, p.state, got)
		}
	}
}

// TestSealResurrectByType pins the byType sharing case: sealing, killing a
// node, resurrecting it (which appends to the live byType list in place)
// must not grow any sealed version's type set.
func TestSealResurrectByType(t *testing.T) {
	d := New("db")
	c1, _ := d.AddNode("C", relational.Tuple{relational.Int(1)})
	c2, _ := d.AddNode("C", relational.Tuple{relational.Int(2)})
	d.AddEdge(d.Root(), c1)
	d.AddEdge(c1, c2)

	v1 := d.Seal()
	want1 := append([]NodeID(nil), v1.NodesOfType("C")...)

	d.RemoveNode(c2)
	v2 := d.Seal()
	want2 := append([]NodeID(nil), v2.NodesOfType("C")...)
	if len(want2) != len(want1)-1 {
		t.Fatalf("v2 should have lost a C node: %v vs %v", want2, want1)
	}

	// Resurrect: reuses c2's id, appends to the live byType list.
	r, created := d.AddNode("C", relational.Tuple{relational.Int(2)})
	if !created || r != c2 {
		t.Fatalf("resurrection should reuse id %d, got %d created=%v", c2, r, created)
	}
	d.AddEdge(c1, r)
	for i := 0; i < 40; i++ { // force byType growth past shared capacity
		id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(100 + i))})
		d.AddEdge(d.Root(), id)
	}

	if got := v1.NodesOfType("C"); !reflect.DeepEqual(got, want1) {
		t.Errorf("v1 type set changed: %v want %v", got, want1)
	}
	if got := v2.NodesOfType("C"); !reflect.DeepEqual(got, want2) {
		t.Errorf("v2 type set changed: %v want %v", got, want2)
	}
	if !v1.Alive(c2) || v2.Alive(c2) {
		t.Errorf("alive bits leaked across versions: v1=%v v2=%v", v1.Alive(c2), v2.Alive(c2))
	}
}

// TestSealSharesUntouchedChunks asserts the O(Δ) property structurally: a
// seal after one small write shares all but the dirtied chunks with the
// previous seal.
func TestSealSharesUntouchedChunks(t *testing.T) {
	d := New("db")
	var ids []NodeID
	for i := 0; i < 4*cow.ChunkSize; i++ {
		id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
		if len(ids) > 0 {
			d.AddEdge(ids[len(ids)-1], id)
		} else {
			d.AddEdge(d.Root(), id)
		}
		ids = append(ids, id)
	}
	v1 := d.Seal()
	// One edge removal touches two rows (child list of u, parent list of v).
	d.RemoveEdge(ids[0], ids[1])
	v2 := d.Seal()

	copiedCh := 0
	for i := 0; i < v1.children.Len(); i += cow.ChunkSize {
		if !v1.children.SameChunk(v2.children, i) {
			copiedCh++
		}
	}
	if copiedCh > 1 {
		t.Errorf("children: %d chunks copied for a one-edge delete", copiedCh)
	}
	for i := 0; i < v1.alive.Len(); i += cow.ChunkSize {
		if !v1.alive.SameChunk(v2.alive, i) {
			t.Errorf("alive: chunk of node %d copied for an edge-only change", i)
		}
	}
	// And the removed edge is visible only in v2.
	if !v1.hasEdgeIn(ids[0], ids[1]) {
		t.Error("v1 lost the removed edge")
	}
	if v2.hasEdgeIn(ids[0], ids[1]) {
		t.Error("v2 still has the removed edge")
	}
}

// hasEdgeIn is a test helper over a sealed version.
func (v *Version) hasEdgeIn(u, c NodeID) bool {
	for _, x := range v.Children(u) {
		if x == c {
			return true
		}
	}
	return false
}

// TestByTypeStaysBoundedUnderChurn pins the gen_A list bound: however many
// delete/re-insert cycles a serving view sees — through RemoveNode and
// resurrection, and through journaled adds that roll back — every raw list
// stays within twice its type's live count plus a constant, and always
// covers exactly the live nodes of its type.
func TestByTypeStaysBoundedUnderChurn(t *testing.T) {
	d := New("db")
	const live = 40
	ids := make([]NodeID, live)
	for i := range ids {
		ids[i], _ = d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
		d.AddEdge(d.Root(), ids[i])
		k, _ := d.AddNode("key", relational.Tuple{relational.Int(int64(i))})
		d.AddEdge(ids[i], k)
	}
	check := func(cycle int) {
		t.Helper()
		for _, typ := range []string{"db", "C", "key"} {
			raw, nodes := d.IDsOfType(typ), d.NodesOfType(typ)
			if len(raw) > 2*len(nodes)+byTypeSlack {
				t.Fatalf("cycle %d: len(byType[%s]) = %d with %d live", cycle, typ, len(raw), len(nodes))
			}
			seen := map[NodeID]bool{}
			for _, id := range raw {
				if d.Alive(id) {
					seen[id] = true
				}
			}
			if len(seen) != len(nodes) {
				t.Fatalf("cycle %d: byType[%s] covers %d live nodes, want %d", cycle, typ, len(seen), len(nodes))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for cycle := 0; cycle < 10000; cycle++ {
		i := rng.Intn(live)
		switch cycle % 3 {
		case 0, 1: // delete, then re-insert the same identity
			d.RemoveNode(ids[i])
			r, created := d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
			if !created || r != ids[i] {
				t.Fatalf("cycle %d: resurrection got id %d created=%v", cycle, r, created)
			}
			d.AddEdge(d.Root(), r)
		case 2: // a rejected insertion: journaled add, rolled back
			d.Begin()
			n, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(live + cycle))})
			d.AddEdge(d.Root(), n)
			d.RemoveNode(ids[i])
			d.Rollback()
		}
		check(cycle)
	}
	if got := d.NumNodes(); got != 1+2*live {
		t.Errorf("churn changed the live node count: %d", got)
	}
}

// TestSealedVersionSurvivesByTypeCompaction: a Version sealed before the
// writer compacts a gen_A list keeps answering from the array it sealed.
func TestSealedVersionSurvivesByTypeCompaction(t *testing.T) {
	d := New("db")
	var ids []NodeID
	for i := 0; i < 4*byTypeSlack; i++ {
		id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
		d.AddEdge(d.Root(), id)
		ids = append(ids, id)
	}
	v := d.Seal()
	want := append([]NodeID(nil), v.NodesOfType("C")...)
	wantRaw := append([]NodeID(nil), v.IDsOfType("C")...)

	before := len(d.IDsOfType("C"))
	for _, id := range ids[1:] {
		d.RemoveNode(id)
	}
	if after := len(d.IDsOfType("C")); after >= before {
		t.Fatalf("the writer never compacted: %d -> %d entries", before, after)
	}
	for i := 0; i < 4*byTypeSlack; i++ { // appends after the compaction land in the fresh array
		id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(1000 + i))})
		d.AddEdge(d.Root(), id)
	}
	if got := v.NodesOfType("C"); !reflect.DeepEqual(got, want) {
		t.Errorf("sealed NodesOfType changed: %v want %v", got, want)
	}
	if got := v.IDsOfType("C"); !reflect.DeepEqual(got, wantRaw) {
		t.Errorf("sealed raw list changed: %v want %v", got, wantRaw)
	}
	if got, want := d.NodesOfType("C"), 1+4*byTypeSlack; len(got) != want {
		t.Errorf("live view has %d C nodes, want %d", len(got), want)
	}
}
