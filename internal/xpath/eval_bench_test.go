package xpath

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
)

// benchDAG builds a layered recursive DAG of roughly n nodes with shared
// subtrees and text values — the shape the evaluator sees in the synthetic
// serving workloads.
func benchDAG(n int) (*dag.DAG, func(dag.NodeID) (string, bool)) {
	rng := rand.New(rand.NewSource(5))
	d := dag.New("db")
	text := make(map[dag.NodeID]string)
	var prev []dag.NodeID
	prev = append(prev, d.Root())
	id := 0
	for len(text) < n {
		var layer []dag.NodeID
		width := 1 + rng.Intn(8)
		for i := 0; i < width && len(text) < n; i++ {
			c, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(id))})
			id++
			text[c] = fmt.Sprintf("v%d", id%7)
			d.AddEdge(prev[rng.Intn(len(prev))], c)
			if rng.Intn(3) == 0 && len(prev) > 1 { // share: a second parent
				d.AddEdge(prev[rng.Intn(len(prev))], c)
			}
			layer = append(layer, c)
		}
		if len(layer) > 0 {
			prev = layer
		}
	}
	return d, func(v dag.NodeID) (string, bool) {
		s, ok := text[v]
		return s, ok
	}
}

// BenchmarkEval measures the NFA evaluator's steady-state cost and
// allocations on a //-heavy path with a filter — run with -benchmem to see
// the scratch pool's effect (before pooling, every eval allocated its
// filter tables, a map per node for the state sets, and a *edgeInfo per
// edge).
func BenchmarkEval(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		d, text := benchDAG(n)
		ev := &Evaluator{D: d, Text: text}
		p, err := Parse(`//C[C]/C`)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalSelect measures the selection-only fast path.
func BenchmarkEvalSelect(b *testing.B) {
	d, text := benchDAG(10000)
	ev := &Evaluator{D: d, Text: text}
	p, err := Parse(`//C[C="v3"]`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalSelect(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalRoutes runs one value-filtered path by the route Eval picks
// for it (anchored) and by the sweep, and select-only by the route
// EvalSelect picks (down) and by the sweep, on the same view.
func BenchmarkEvalRoutes(b *testing.B) {
	d, text := benchDAG(10000)
	ev := &Evaluator{D: d, Text: text}
	p := MustParse(`//C[C="v3"]/C`)
	for name, eval := range map[string]func(*Path) (*Result, error){
		"anchored": ev.Eval, "sweep": ev.EvalSweep, "select-down": ev.EvalSelect, "select-sweep": ev.EvalSelectSweep,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNewIdentityDoesNotRemakeScratch: an insertion gives the view one more
// node id, and the evaluation that follows must not pay for it with fresh
// Cap-sized scratch arrays (node sets, in-degrees, filter bits, the
// state-set index: ≥ 44 bytes per id when each is re-made at exactly the
// new size), on any of the three routes. The bytes of an evaluation right after a new identity are held
// against the bytes of one on an unchanged view. Each is the cheapest of a
// few, because the pool may hand out a fresh scratch at any time (it drops
// entries at random under -race, and at every GC) and a geometric growth
// step has to land somewhere.
func TestNewIdentityDoesNotRemakeScratch(t *testing.T) {
	d, text := benchDAG(20000)
	ev := &Evaluator{D: d, Text: text}
	fresh := 0
	addNode := func() {
		c, _ := d.AddNode("C", relational.Tuple{relational.Str(fmt.Sprint("fresh", fresh))})
		fresh++
		d.AddEdge(d.Root(), c)
	}
	for name, c := range map[string]struct {
		eval func(*Path) (*Result, error)
		p    *Path
	}{
		"anchored": {ev.Eval, MustParse(`//C[C="v3"]/C`)},
		"sweep":    {ev.Eval, MustParse(`//C[C]/C`)},
		"down":     {ev.EvalSelect, MustParse(`//C[C="v3"]`)},
	} {
		cheapest := func(prepare func()) uint64 {
			least := ^uint64(0)
			var before, after runtime.MemStats
			for i := 0; i < 8; i++ {
				prepare()
				runtime.ReadMemStats(&before)
				if _, err := c.eval(c.p); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		steady := cheapest(func() {})
		afterNew := cheapest(addNode)
		t.Logf("%s: %d bytes per evaluation, %d after a new identity (Cap %d)", name, steady, afterNew, d.Cap())
		if limit := steady + uint64(8*d.Cap()); afterNew > limit {
			t.Errorf("%s: an evaluation after a new identity allocated %d bytes, one on an unchanged view %d: "+
				"want at most 8 more per node id (%d)", name, afterNew, steady, limit)
		}
	}
}
