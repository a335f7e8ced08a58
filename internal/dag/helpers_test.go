package dag

// Accessors only this package's tests call.

// ChainDAG is chainDAG for the external test package.
var ChainDAG = chainDAG

// NodesOfType returns the nodes of an element type live at the sealed
// epoch, in id order.
func (v *Version) NodesOfType(typ string) []NodeID {
	return liveSorted(v.byType[typ], v.alive.At)
}

// Edges returns all live edges grouped by (parent type, child type) — the
// edge_A_B relations of the relational coding V_σ. Keys are "A→B".
func (d *DAG) Edges() map[string][]Edge {
	out := make(map[string][]Edge)
	for _, u := range d.Nodes() {
		for _, v := range d.children.row(u) {
			k := d.types[u] + "→" + d.types[v]
			out[k] = append(out[k], Edge{u, v})
		}
	}
	return out
}
