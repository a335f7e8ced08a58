package core

import (
	"fmt"
	"testing"

	"rxview/internal/relational"
	"rxview/internal/xpath"
)

// TestValueUpdateConeStopsAtTheWindow pins the anchored route's cone
// (Result.Visited) for the two value shapes of the write-heavy benchmark on
// the §5 view at |C|=5000: the value-selected insert //C[val="v"]/sub, whose
// window is two levels above X, and the delete //C[key="k"] of a key that
// insert hung under every target, one level. The values are the
// benchmark's: rare ones, from a fifth into the value range, each reaching
// tens of C nodes. The whole ancestry of those targets, which the cone read
// before it stopped at the window, is 575 to 1 034 nodes here.
func TestValueUpdateConeStopsAtTheWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a |C|=5000 view")
	}
	const nc = 5000
	syn, s := openSynthetic(t, nc, 3)
	card := nc / 50
	const want = 12
	var values int
	for i := 0; i < card && values < want; i++ {
		v := fmt.Sprintf("v%d", card/5+i)
		if sel, err := s.Select(xpath.MustParse(fmt.Sprintf(`//C[val="%s"]`, v))); err != nil {
			t.Fatal(err)
		} else if len(sel.Selected) == 0 {
			continue
		}
		key := syn.NextKey
		syn.NextKey++
		values++
		for _, step := range []struct {
			path  string
			apply func(string) (*Report, error)
			bound int
		}{
			{fmt.Sprintf(`//C[val="%s"]/sub`, v), func(p string) (*Report, error) {
				return s.Insert(p, "C", relational.Tuple{relational.Int(key), relational.Str("w")})
			}, 250},
			{fmt.Sprintf(`//C[key="%d"]`, key), s.Delete, 80},
		} {
			res, err := s.Eval(xpath.MustParse(step.path))
			if err != nil {
				t.Fatal(err)
			}
			if res.Route != xpath.RouteAnchored || len(res.Selected) == 0 {
				t.Fatalf("%s: %d targets by the %s route", step.path, len(res.Selected), res.Route)
			}
			if res.Visited > step.bound {
				t.Errorf("%s: the cone of %d targets is %d nodes, want ≤ %d", step.path, len(res.Selected), res.Visited, step.bound)
			}
			t.Logf("%s: %d targets, cone %d", step.path, len(res.Selected), res.Visited)
			if rep, err := step.apply(step.path); err != nil || !rep.Applied {
				t.Fatalf("%s: applied %v: %v", step.path, rep != nil && rep.Applied, err)
			}
		}
	}
	if values < want {
		t.Fatalf("only %d values select a C node", values)
	}
}
