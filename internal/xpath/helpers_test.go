package xpath

// Methods only this package's tests call.

// LastLabel returns the label of the final labeled step, if the path ends
// with one (after trailing filters).
func (p *Path) LastLabel() (string, bool) {
	for i := len(p.Steps) - 1; i >= 0; i-- {
		switch p.Steps[i].Kind {
		case StepLabel:
			return p.Steps[i].Label, true
		case StepSelf:
			continue // trailing filter step
		default:
			return "", false
		}
	}
	return "", false
}

// Route reports which route Eval takes for the path. It is a function of
// the path's shape alone: anchored iff some ε[q] step of the normal form has
// a top-level conjunct l1/…/lk = "s" (a pure child-label chain) and no
// filter anywhere on the path contains //. EvalSelect takes the same route,
// except that an anchored path whose normal form is //, then a label or *,
// then ε steps up to the anchor (//C[key="r"]/sub/C, //C[val="v"]) reads
// by the down route.
func (p *Path) Route() Route {
	if p.compiled().anchor != nil {
		return RouteAnchored
	}
	return RouteSweep
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.lru.Len() }
