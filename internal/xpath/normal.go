package xpath

// NStep is a step of the normal form η1/…/ηn of §3.2: each ηi is ε[q], a
// label A, a wildcard ∗, or //. Filters on label/wildcard steps are peeled
// into trailing ε[q] steps using the rewrites p[q] ≡ p/ε[q] and
// ε[q1]…[qn] ≡ ε[q1 ∧ … ∧ qn], in O(|p|) time.
type NStep struct {
	Kind   StepKind
	Label  string
	Filter Expr // only for StepSelf; nil means plain ε (dropped unless first)
}

// Normalize rewrites the path into normal form.
func Normalize(p *Path) []NStep {
	var out []NStep
	for _, s := range p.Steps {
		switch s.Kind {
		case StepDescOrSelf:
			out = append(out, NStep{Kind: StepDescOrSelf})
		case StepWild:
			out = append(out, NStep{Kind: StepWild})
		case StepLabel:
			out = append(out, NStep{Kind: StepLabel, Label: s.Label})
		case StepSelf:
			// handled below via filters only
		}
		if f := conjoin(s.Filters); f != nil {
			out = append(out, NStep{Kind: StepSelf, Filter: f})
		} else if s.Kind == StepSelf {
			// A bare ε step: meaningful only as an explicit no-op; keep a
			// filterless self step so "." stays representable.
			out = append(out, NStep{Kind: StepSelf})
		}
	}
	return out
}

func conjoin(filters []Expr) Expr {
	var f Expr
	for _, q := range filters {
		if f == nil {
			f = q
		} else {
			f = &ExprAnd{L: f, R: q}
		}
	}
	return f
}

// collectFilters gathers every filter expression reachable from the steps,
// sub-filters before the filters containing them — the topologically sorted
// filter list Q of §3.2. Each ExprPath's nested filters appear before it,
// taken from the nested path's own normal form: a nested step with several
// filters contributes their conjunction, the expression the step is
// evaluated with.
func collectFilters(steps []NStep) []Expr {
	var out []Expr
	seen := map[Expr]bool{}
	var visitExpr func(e Expr)
	visitExpr = func(e Expr) {
		if e == nil || seen[e] {
			return
		}
		switch t := e.(type) {
		case *ExprAnd:
			visitExpr(t.L)
			visitExpr(t.R)
		case *ExprOr:
			visitExpr(t.L)
			visitExpr(t.R)
		case *ExprNot:
			visitExpr(t.E)
		case *ExprPath:
			for _, s := range t.Path.compiled().steps {
				visitExpr(s.Filter)
			}
		}
		seen[e] = true
		out = append(out, e)
	}
	for _, s := range steps {
		visitExpr(s.Filter)
	}
	return out
}
