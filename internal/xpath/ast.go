package xpath

import (
	"strings"
	"sync"
)

// StepKind classifies a path step.
type StepKind uint8

// Step kinds of the normal form η ::= ε[q] | A | * | //.
const (
	StepSelf       StepKind = iota // ε (with optional filters)
	StepLabel                      // child step with a label test
	StepWild                       // child step, any label
	StepDescOrSelf                 // //
)

// Step is one parsed path step with its filters.
type Step struct {
	Kind    StepKind
	Label   string // for StepLabel
	Filters []Expr
}

// Path is a parsed XPath expression. Evaluation is always anchored at the
// view root (r[[p]] in the paper); inside filters, paths are relative to the
// context node.
type Path struct {
	Steps []Step

	once sync.Once // guards plan; see compiled
	plan *plan
}

// Expr is a filter expression q.
type Expr interface {
	isExpr()
	String() string
}

// ExprPath is an existence filter p, or a value comparison p = "s" when Cmp
// is non-nil. An empty path with a comparison tests the context node's own
// text value (e.g. the paper's //student[sid=S02] after parsing sid as a
// child path — a bare `.="x"` form is also accepted).
type ExprPath struct {
	Path *Path
	Cmp  *string
}

// ExprLabel is the filter label() = A.
type ExprLabel struct {
	Label string
}

// ExprAnd is q1 ∧ q2.
type ExprAnd struct{ L, R Expr }

// ExprOr is q1 ∨ q2.
type ExprOr struct{ L, R Expr }

// ExprNot is ¬q.
type ExprNot struct{ E Expr }

func (*ExprPath) isExpr()  {}
func (*ExprLabel) isExpr() {}
func (*ExprAnd) isExpr()   {}
func (*ExprOr) isExpr()    {}
func (*ExprNot) isExpr()   {}

func (e *ExprPath) String() string {
	if e.Cmp != nil {
		return e.Path.String() + "=\"" + *e.Cmp + "\""
	}
	return e.Path.String()
}
func (e *ExprLabel) String() string { return "label()=" + e.Label }
func (e *ExprAnd) String() string   { return "(" + e.L.String() + " and " + e.R.String() + ")" }
func (e *ExprOr) String() string    { return "(" + e.L.String() + " or " + e.R.String() + ")" }
func (e *ExprNot) String() string   { return "not(" + e.E.String() + ")" }

// String renders the path in source syntax.
func (p *Path) String() string {
	if p == nil || len(p.Steps) == 0 {
		return "."
	}
	var b strings.Builder
	for i, s := range p.Steps {
		switch s.Kind {
		case StepDescOrSelf:
			b.WriteString("//")
		case StepSelf:
			if i > 0 && p.Steps[i-1].Kind != StepDescOrSelf {
				b.WriteByte('/')
			}
			b.WriteByte('.')
		default:
			if i > 0 && p.Steps[i-1].Kind != StepDescOrSelf {
				b.WriteByte('/')
			}
			if s.Kind == StepWild {
				b.WriteByte('*')
			} else {
				b.WriteString(s.Label)
			}
		}
		for _, f := range s.Filters {
			b.WriteByte('[')
			b.WriteString(f.String())
			b.WriteByte(']')
		}
	}
	return b.String()
}
