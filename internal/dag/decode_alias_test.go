package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rxview/internal/relational"
)

// rowsState renders every identity's attribute, child row and parent row —
// dead identities included, parents sorted (their order is not observable and
// differs between a DAG that was built and one that was decoded).
func rowsState(d *DAG) string {
	var out strings.Builder
	for id := NodeID(0); int(id) < d.Cap(); id++ {
		par := slices.Clone(d.Parents(id))
		slices.Sort(par)
		fmt.Fprintf(&out, "%d %s%s alive=%v ch=%v par=%v\n", id, d.Type(id), d.Attr(id), d.Alive(id), d.Children(id), par)
	}
	return out.String()
}

// TestDecodeStateRowsDoNotAlias: DecodeState cuts attribute tuples and child
// and parent rows from shared slabs, so the property to hold is that a row is
// nobody's neighbour: the decoded DAG and the DAG it was encoded from take the
// same seeded run of AddNode, AddEdge and RemoveEdge, one node at a time, and
// after every operation all rows of all nodes — the touched one's and every
// other's — are the same on both sides. The run crosses a Seal, after which
// the writer copies rows before it changes them, and the sealed version must
// not move either.
func TestDecodeStateRowsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	built := New("db")
	ids := []NodeID{built.Root()}
	for i := 0; i < 300; i++ {
		id, _ := built.AddNode("C", relational.Tuple{relational.Int(int64(i)), relational.Str(fmt.Sprintf("name-%d", i%17))})
		ids = append(ids, id)
		// Edges from the larger id to the smaller never close a cycle.
		for k := rng.Intn(4); k >= 0; k-- {
			built.AddEdge(id, ids[rng.Intn(len(ids)-1)])
		}
	}
	for i := 0; i < 20; i++ { // dead identities, so rows of length zero sit between the others
		built.RemoveNode(ids[1+rng.Intn(len(ids)-1)])
	}
	state := built.AppendState(nil, nil)
	decoded, err := DecodeState(state)
	if err != nil {
		t.Fatal(err)
	}
	for i := range state {
		state[i] = 0xee // the decoded DAG must not alias its input
	}
	if got, want := rowsState(decoded), rowsState(built); got != want {
		t.Fatalf("decoded DAG differs from the one encoded:\n%s\nvs\n%s", got, want)
	}

	var sealed *Version
	var sealedState string
	next := int64(1000)
	for op := 0; op < 600; op++ {
		if op == 300 {
			sealed = decoded.Seal()
			sealedState = versionState(sealed)
			built.Seal()
		}
		u := ids[rng.Intn(len(ids))]
		what := ""
		switch rng.Intn(3) {
		case 0:
			v := ids[rng.Intn(len(ids))]
			if v > u {
				u, v = v, u
			}
			what = fmt.Sprintf("AddEdge(%d, %d)", u, v)
			if got, want := decoded.AddEdge(u, v), built.AddEdge(u, v); got != want {
				t.Fatalf("op %d %s: decoded says %v, built says %v", op, what, got, want)
			}
		case 1:
			ch := built.Children(u)
			if len(ch) == 0 {
				continue
			}
			v := ch[rng.Intn(len(ch))]
			what = fmt.Sprintf("RemoveEdge(%d, %d)", u, v)
			if got, want := decoded.RemoveEdge(u, v), built.RemoveEdge(u, v); got != want {
				t.Fatalf("op %d %s: decoded says %v, built says %v", op, what, got, want)
			}
		default:
			attr := relational.Tuple{relational.Int(next), relational.Str("fresh")}
			next++
			what = fmt.Sprintf("AddNode(C%s) under %d", attr, u)
			a, _ := decoded.AddNode("C", attr)
			b, _ := built.AddNode("C", attr)
			if a != b {
				t.Fatalf("op %d %s: decoded allocated %d, built %d", op, what, a, b)
			}
			decoded.AddEdge(a, u)
			built.AddEdge(b, u)
			ids = append(ids, a)
		}
		if got, want := rowsState(decoded), rowsState(built); got != want {
			t.Fatalf("op %d %s: decoded DAG\n%s\nbuilt DAG\n%s", op, what, got, want)
		}
	}
	if got := versionState(sealed); got != sealedState {
		t.Fatalf("the version sealed from the decoded DAG moved under later writes:\nat seal:\n%s\nnow:\n%s", sealedState, got)
	}
}

// TestGenKeyAppendForm: the registry key is the type, a zero byte and the
// attribute's encoding, as the string form it replaces was.
func TestGenKeyAppendForm(t *testing.T) {
	for _, attr := range []relational.Tuple{
		nil,
		{relational.Null()},
		{relational.Str(""), relational.Int(7)},
		{relational.Str("a\x00b"), relational.Bool(true), relational.Null()},
	} {
		for _, typ := range []string{"", "db", "course"} {
			want := typ + "\x00" + attr.Encode()
			if got := string(appendGenKey(nil, typ, attr)); got != want {
				t.Errorf("appendGenKey(%q, %v) = %q, want %q", typ, attr, got, want)
			}
			if got := string(appendGenKey([]byte("pre"), typ, attr)); got != "pre"+want {
				t.Errorf("appendGenKey behind a prefix = %q", got)
			}
		}
	}
	d := New("db")
	attr := relational.Tuple{relational.Str("CS650"), relational.Int(3)}
	d.AddNode("course", attr)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := d.Lookup("course", attr); !ok {
			t.Fatal("node missing")
		}
		if _, created := d.AddNode("course", attr); created {
			t.Fatal("node created twice")
		}
	}); n != 0 {
		t.Errorf("Lookup + AddNode of a live identity allocate %v objects, want 0", n)
	}
}
