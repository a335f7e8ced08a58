package dtd

// Methods only this package's tests call.

// ParentTypes returns every type that mentions name as a child.
func (d *DTD) ParentTypes(name string) []string {
	var out []string
	for _, t := range d.Types() {
		for _, c := range d.Elems[t].Children {
			if c == name {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// IsRecursive reports whether any type is defined, directly or indirectly, in
// terms of itself. The paper notes that DTDs found in practice are often
// recursive [16], which is what distinguishes this work from prior XML view
// update systems.
func (d *DTD) IsRecursive() bool { return len(d.RecursiveTypes()) > 0 }

// RecursiveTypes returns, in sorted order, every type that participates in a
// cycle of the type graph.
func (d *DTD) RecursiveTypes() []string {
	// Tarjan-free approach: a type is recursive iff it can reach itself.
	reach := d.reachability()
	var out []string
	for _, t := range d.Types() {
		if reach[t][t] {
			out = append(out, t)
		}
	}
	return out
}

// reachability returns the strict-descendant closure of the type graph.
func (d *DTD) reachability() map[string]map[string]bool {
	types := d.Types()
	reach := make(map[string]map[string]bool, len(types))
	for _, t := range types {
		reach[t] = make(map[string]bool)
		for _, c := range d.Elems[t].Children {
			reach[t][c] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range types {
			for mid := range reach[t] {
				for tgt := range reach[mid] {
					if !reach[t][tgt] {
						reach[t][tgt] = true
						changed = true
					}
				}
			}
		}
	}
	return reach
}

// Reachable reports whether descendant type to is reachable from type from
// (strictly, via one or more child steps).
func (d *DTD) Reachable(from, to string) bool {
	return d.reachability()[from][to]
}
