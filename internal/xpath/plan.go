package xpath

// Route names one of the three ways a path is evaluated; see Evaluator.
type Route uint8

// The evaluation routes.
const (
	// RouteSweep is §3.2's two-pass algorithm over the whole view.
	RouteSweep Route = iota
	// RouteAnchored is the exact pass over the ancestor cone of the nodes a
	// value filter can hold at.
	RouteAnchored
	// RouteDown is the select-only pass of a //-led anchored path, from the
	// anchor nodes downward with no ancestor cone.
	RouteDown
)

func (r Route) String() string {
	switch r {
	case RouteAnchored:
		return "anchored"
	case RouteDown:
		return "down"
	}
	return "sweep"
}

// plan is everything evaluation needs of a path beyond its parse tree. It
// depends on the path alone, so it is computed once per compiled path
// (Path.compiled) — and the compiled-path cache makes that once per hot
// query text — instead of once per evaluation.
type plan struct {
	steps   []NStep      // the normal form η1/…/ηn
	filters []Expr       // every filter sub-expression, sub-filters first (§3.2's list Q)
	index   map[Expr]int // position of a filter in filters
	anchor  *anchor      // where the anchored route starts; nil means the path is swept
	// down reports that EvalSelect takes the down route: the normal form is
	// //, then a label or *, then ε steps up to and including the anchor.
	down bool
	// live bounds the anchored route's cone for a path with no // after its
	// first step (nil for any other): the cone is X and len(live)-1 levels
	// of parents, and live[ℓ] holds the states that can still accept at a
	// cone node ℓ levels above X (see window).
	live []uint64
}

// anchor is the step the anchored route starts from: steps[step] is an ε[q]
// whose filter q has the top-level conjunct l1/…/lk = "value", so q can hold
// only at nodes with an l1/…/lk child chain ending in that text.
type anchor struct {
	step   int
	labels []string // l1 … lk, k ≥ 1
	value  string
}

// compiled returns the path's plan, building it on first use. Compiled
// paths are shared between goroutines (the path cache hands one *Path to
// every evaluation of a query text); the plan is immutable once built.
func (p *Path) compiled() *plan {
	p.once.Do(func() {
		pl := &plan{steps: Normalize(p)}
		pl.filters = collectFilters(pl.steps)
		pl.index = make(map[Expr]int, len(pl.filters))
		for i, q := range pl.filters {
			pl.index[q] = i
		}
		pl.anchor = findAnchor(pl)
		pl.down = selectsDown(pl)
		if pl.anchor != nil {
			pl.live = window(pl.steps)
		}
		p.plan = pl
	})
	return p.plan
}

// selectsDown decides plan.down: an anchored path whose steps before the
// anchor are //, a label or *, and ε steps.
func selectsDown(pl *plan) bool {
	a := pl.anchor
	if a == nil || a.step < 2 || pl.steps[0].Kind != StepDescOrSelf {
		return false
	}
	if k := pl.steps[1].Kind; k != StepLabel && k != StepWild {
		return false
	}
	for _, s := range pl.steps[2:a.step] {
		if s.Kind != StepSelf {
			return false
		}
	}
	return true
}

// window computes plan.live by the window lemma (doc.go): with n child
// steps and no // after the first step, the cone climbs max(n,1) levels,
// and state i, having consumed c(i) child steps, is live at level ℓ iff
// n−c(i) ≥ ℓ; state 0 of a //-led path is live everywhere. A later //
// leaves the climb unbounded: nil.
func window(steps []NStep) []uint64 {
	for _, s := range steps[1:] {
		if s.Kind == StepDescOrSelf {
			return nil
		}
	}
	c := make([]int, len(steps)+1) // c[i]: child steps among steps[:i]
	for i, s := range steps {
		c[i+1] = c[i]
		if s.Kind == StepLabel || s.Kind == StepWild {
			c[i+1]++
		}
	}
	n, lead := c[len(steps)], steps[0].Kind == StepDescOrSelf
	live := make([]uint64, max(n, 1)+1)
	for l := range live {
		for i := range c {
			if n-c[i] >= l || i == 0 && lead {
				live[l] |= 1 << uint(i)
			}
		}
	}
	return live
}

// findAnchor picks the first ε[q] step with a value-chain conjunct. Filters
// containing // rule the route out altogether: the anchored pass decides
// filters pointwise from a node's children, which is only cheap when no
// filter can look arbitrarily deep — bottom-up tables are the right
// algorithm for those.
func findAnchor(pl *plan) *anchor {
	for _, q := range pl.filters {
		if f, ok := q.(*ExprPath); ok {
			for _, s := range f.Path.Steps {
				if s.Kind == StepDescOrSelf {
					return nil
				}
			}
		}
	}
	for i, s := range pl.steps {
		if s.Kind != StepSelf || s.Filter == nil {
			continue
		}
		if labels, value, ok := valueChain(s.Filter); ok {
			return &anchor{step: i, labels: labels, value: value}
		}
	}
	return nil
}

// valueChain finds, among the top-level conjuncts of q, a comparison
// l1/…/lk = "s" whose path is nothing but child-label steps.
func valueChain(q Expr) (labels []string, value string, ok bool) {
	switch t := q.(type) {
	case *ExprAnd:
		if labels, value, ok = valueChain(t.L); ok {
			return labels, value, true
		}
		return valueChain(t.R)
	case *ExprPath:
		if t.Cmp == nil || len(t.Path.Steps) == 0 {
			return nil, "", false
		}
		for _, s := range t.Path.Steps {
			if s.Kind != StepLabel || len(s.Filters) > 0 {
				return nil, "", false
			}
			labels = append(labels, s.Label)
		}
		return labels, *t.Cmp, true
	}
	return nil, "", false
}

// terminalType returns the element type every node that completes the
// (normalized) filter path must have, when the path fixes it: the label of
// the last child step, trailing ε[q] steps aside.
func terminalType(steps []NStep) (string, bool) {
	for i := len(steps) - 1; i >= 0; i-- {
		switch steps[i].Kind {
		case StepSelf:
			continue
		case StepLabel:
			return steps[i].Label, true
		default:
			return "", false
		}
	}
	return "", false
}
