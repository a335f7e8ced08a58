package update

import (
	"fmt"

	"rxview/internal/dtd"
	"rxview/internal/xpath"
)

// InvalidError rejects an update in the validation phase (§2.4), before
// any data is read: its path reaches no element type the DTD lets it
// change, it would delete the root, or its attribute tuple does not fit the
// element type it inserts.
type InvalidError struct{ Reason string }

func (e *InvalidError) Error() string { return "update: " + e.Reason }

// ValidateAgainstDTD is the schema-level validation phase of §2.4: it
// "evaluates" the update's XPath p on the DTD D to find the element types
// reached by p, and rejects the update unless every affected production has
// the form T → A* (only star children may gain or lose elements without
// violating D). The check runs in time polynomial in |p| and |D| and never
// touches the data.
//
// Filters are over-approximated as satisfiable (except label() tests, which
// are exact), so validation is conservative: it can reject an update whose
// concrete targets would all have been legal types, but it never accepts an
// update that could produce an invalid document — matching the paper's
// "updates of other forms can be immediately rejected".
func ValidateAgainstDTD(d *dtd.DTD, op *Op) error {
	steps := xpath.Normalize(op.Path)
	n := len(steps)
	if n > xpath.MaxSteps {
		// Same bound and same typed error as the evaluators, so validation
		// and evaluation never disagree on which paths are representable.
		return &xpath.PathTooLongError{Steps: n}
	}
	accept := uint64(1) << uint(n)

	closure := func(mask uint64, typ string) uint64 {
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			switch steps[i].Kind {
			case xpath.StepSelf:
				if filterMayHold(steps[i].Filter, typ) {
					mask |= 1 << uint(i+1)
				}
			case xpath.StepDescOrSelf:
				mask |= 1 << uint(i+1)
			}
		}
		return mask
	}
	move := func(mask uint64, childType string) uint64 {
		var out uint64
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			switch steps[i].Kind {
			case xpath.StepLabel:
				if steps[i].Label == childType {
					out |= 1 << uint(i+1)
				}
			case xpath.StepWild:
				out |= 1 << uint(i+1)
			case xpath.StepDescOrSelf:
				out |= 1 << uint(i)
			}
		}
		return closure(out, childType)
	}

	// Fixpoint over the (possibly cyclic) type graph. Union masks are
	// exact for reachability because transitions are bit-linear.
	masks := map[string]uint64{d.Root: closure(1, d.Root)}
	// parentsVia[T] collects the types through whose transition p reaches
	// T (the type-level Ep, used to validate deletions).
	parentsVia := map[string]map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, t := range d.Types() {
			m := masks[t]
			if m == 0 {
				continue
			}
			for _, c := range d.ChildTypes(t) {
				m2 := move(m, c)
				if m2&^masks[c] != 0 {
					masks[c] |= m2
					changed = true
				}
				if m2&accept != 0 {
					if parentsVia[c] == nil {
						parentsVia[c] = map[string]bool{}
					}
					if !parentsVia[c][t] {
						parentsVia[c][t] = true
						changed = true
					}
				}
			}
		}
	}

	reached := []string{}
	for _, t := range d.Types() {
		if masks[t]&accept != 0 {
			reached = append(reached, t)
		}
	}
	if len(reached) == 0 {
		return invalid("path %s cannot reach any element type of the DTD", op.Path)
	}

	switch op.Kind {
	case OpInsert:
		// Inserting a B child under an A element is legal only if A → B*.
		for _, t := range reached {
			prod := d.Elems[t]
			if prod.Kind != dtd.Star || prod.Children[0] != op.Type {
				return invalid("inserting %s under %s violates the DTD: production is %s %s, need (%s)*",
					op.Type, t, t, prod, op.Type)
			}
		}
	case OpDelete:
		// Deleting a B child from an A parent is legal only if A → B*.
		for _, t := range reached {
			if t == d.Root {
				return invalid("cannot delete the document root")
			}
			for p := range parentsVia[t] {
				prod := d.Elems[p]
				if prod.Kind != dtd.Star || prod.Children[0] != t {
					return invalid("deleting %s from %s violates the DTD: production is %s %s", t, p, p, prod)
				}
			}
		}
	}
	return nil
}

func invalid(format string, args ...any) error {
	return &InvalidError{Reason: fmt.Sprintf(format, args...)}
}

// filterMayHold over-approximates filter satisfiability at an element type:
// label() tests are exact, everything else may hold.
func filterMayHold(q xpath.Expr, typ string) bool {
	switch t := q.(type) {
	case nil:
		return true
	case *xpath.ExprLabel:
		return t.Label == typ
	case *xpath.ExprAnd:
		return filterMayHold(t.L, typ) && filterMayHold(t.R, typ)
	case *xpath.ExprOr:
		return filterMayHold(t.L, typ) || filterMayHold(t.R, typ)
	default:
		// Path existence, comparisons and negations: assume satisfiable.
		return true
	}
}
