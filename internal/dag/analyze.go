package dag

import (
	"errors"
	"math"

	"rxview/internal/xtree"
)

// OccurrenceCounts returns, per node, the number of occurrences the node has
// in the uncompressed tree view (the number of root-to-node paths). Counts
// saturate at MaxFloat64 scale via float64: recursive views can be
// exponentially larger than their DAG (§1), which is the point of the
// compression.
func OccurrenceCounts(d Reader) []float64 {
	occ := make([]float64, d.Cap())
	state := make([]int8, d.Cap())
	root := d.Root()
	var visit func(id NodeID) float64
	visit = func(id NodeID) float64 {
		if state[id] == 2 {
			return occ[id]
		}
		state[id] = 2
		var total float64
		if id == root {
			total = 1
		}
		for _, p := range d.Parents(id) {
			if d.Alive(p) {
				total += visit(p)
			}
		}
		occ[id] = total
		return total
	}
	for _, id := range d.Nodes() {
		visit(id)
	}
	return occ
}

// TreeSize returns the number of element nodes of the uncompressed tree view
// |T|. The compression ratio |T| / NumNodes is what Fig.10(b) reports.
func TreeSize(d Reader) float64 {
	var total float64
	for _, c := range OccurrenceCounts(d) {
		total += c
	}
	return total
}

// SharedNodeCount returns how many live nodes have more than one parent —
// the subtree-sharing statistic of §5 (31.4% of C instances in the paper's
// dataset).
func SharedNodeCount(d Reader) int {
	n := 0
	for _, id := range d.Nodes() {
		live := 0
		for _, p := range d.Parents(id) {
			if d.Alive(p) {
				live++
			}
		}
		if live > 1 {
			n++
		}
	}
	return n
}

// ErrTreeTooLarge is returned by Unfold when the uncompressed tree exceeds
// the node budget.
var ErrTreeTooLarge = errors.New("dag: uncompressed tree exceeds node budget")

// Unfold materializes the uncompressed tree view rooted at id, formatting
// PCDATA content with textOf (nil means elements carry no text). maxNodes
// bounds the output size; recursive views can be exponentially larger than
// the DAG. It works on any Reader — the live DAG or a sealed Version.
func Unfold(d Reader, id NodeID, textOf func(NodeID) (string, bool), maxNodes int) (*xtree.Node, error) {
	if maxNodes <= 0 {
		maxNodes = math.MaxInt
	}
	budget := maxNodes
	var build func(id NodeID) (*xtree.Node, error)
	build = func(id NodeID) (*xtree.Node, error) {
		if budget <= 0 {
			return nil, ErrTreeTooLarge
		}
		budget--
		n := &xtree.Node{Type: d.Type(id)}
		if textOf != nil {
			if s, ok := textOf(id); ok {
				n.Text = s
			}
		}
		for _, c := range d.Children(id) {
			child, err := build(c)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		}
		return n, nil
	}
	return build(id)
}

// Unfold materializes the uncompressed tree view of the live DAG.
func (d *DAG) Unfold(id NodeID, textOf func(NodeID) (string, bool), maxNodes int) (*xtree.Node, error) {
	return Unfold(d, id, textOf, maxNodes)
}
