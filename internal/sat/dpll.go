package sat

// DPLL is a complete SAT solver (Davis–Putnam–Logemann–Loveland with unit
// propagation and pure-literal elimination). It decides satisfiability
// exactly: the insertion translator's step 4 solves every encoding with it,
// and tests use it on the paper's NP-completeness gadgets (Theorems 2
// and 3). It returns a model and true, or nil and false when f is
// unsatisfiable.
func DPLL(f *CNF) ([]bool, bool) {
	assign := make([]int8, f.NumVars) // 0 unknown, 1 true, -1 false
	if !dpll(f.Clauses, assign) {
		return nil, false
	}
	out := make([]bool, f.NumVars)
	for i, a := range assign {
		out[i] = a == 1
	}
	return out, true
}

func dpll(clauses []Clause, assign []int8) bool {
	// Unit propagation + pure literal elimination to fixpoint.
	trail := []int{} // variables assigned at this level, for backtracking
	undo := func() {
		for _, v := range trail {
			assign[v] = 0
		}
	}
	set := func(l Lit) {
		v := l.Var()
		if l.Negated() {
			assign[v] = -1
		} else {
			assign[v] = 1
		}
		trail = append(trail, v)
	}
	litVal := func(l Lit) int8 {
		a := assign[l.Var()]
		if a == 0 {
			return 0
		}
		if l.Negated() {
			return -a
		}
		return a
	}

	for {
		changed := false
		// Unit propagation.
		for _, c := range clauses {
			var unit Lit
			unknown, satisfied := 0, false
			for _, l := range c {
				switch litVal(l) {
				case 1:
					satisfied = true
				case 0:
					unknown++
					unit = l
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			switch unknown {
			case 0:
				undo()
				return false // conflict
			case 1:
				set(unit)
				changed = true
			}
		}
		if changed {
			continue
		}
		// Pure literal elimination.
		seen := map[int]int8{} // var -> 1 pos only, -1 neg only, 2 both
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				if litVal(l) == 1 {
					sat = true
					break
				}
			}
			if sat {
				continue
			}
			for _, l := range c {
				if litVal(l) != 0 {
					continue
				}
				pol := int8(1)
				if l.Negated() {
					pol = -1
				}
				if prev, ok := seen[l.Var()]; !ok {
					seen[l.Var()] = pol
				} else if prev != pol {
					seen[l.Var()] = 2
				}
			}
		}
		for v, pol := range seen {
			if pol == 1 {
				set(Pos(v))
				changed = true
			} else if pol == -1 {
				set(Neg(v))
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Find a branching variable among still-active clauses.
	branch := -1
	allSat := true
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			if litVal(l) == 1 {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		allSat = false
		for _, l := range c {
			if litVal(l) == 0 {
				branch = l.Var()
				break
			}
		}
		if branch >= 0 {
			break
		}
	}
	if allSat {
		return true
	}
	if branch < 0 {
		undo()
		return false
	}
	for _, try := range []int8{1, -1} {
		assign[branch] = try
		if dpll(clauses, assign) {
			return true
		}
		assign[branch] = 0
	}
	undo()
	return false
}
