package core

import (
	"fmt"

	"rxview/internal/dag"
)

// Stats summarizes the view — the quantities of Fig.10(b) in the paper a
// view carries: DAG size, uncompressed tree size and sharing. (|L| and |M|
// are the experiments' to report: a view has neither L nor M.)
type Stats struct {
	BaseRows    int     // total tuples in the published database
	Nodes       int     // DAG nodes (n)
	Edges       int     // DAG edges (|V|, the size of the relational views)
	TreeSize    float64 // uncompressed |T|
	Compression float64 // TreeSize / Nodes
	SharedNodes int     // nodes with >1 parent
	SharedFrac  float64 // SharedNodes / Nodes
}

// Stats computes current statistics.
func (s *System) Stats() Stats {
	return statsFor(s.DAG, s.DB.TotalRows())
}

// statsFor renders the statistics of one view state — shared by the live
// System and its frozen Snapshots so the two can never diverge.
func statsFor(d dag.Reader, baseRows int) Stats {
	n := d.NumNodes()
	ts := dag.TreeSize(d)
	shared := dag.SharedNodeCount(d)
	st := Stats{
		BaseRows:    baseRows,
		Nodes:       n,
		Edges:       d.NumEdges(),
		TreeSize:    ts,
		SharedNodes: shared,
	}
	if n > 0 {
		st.Compression = ts / float64(n)
		st.SharedFrac = float64(shared) / float64(n)
	}
	return st
}

// String renders the statistics in a Fig.10(b)-style line.
func (st Stats) String() string {
	return fmt.Sprintf(
		"rows=%d nodes=%d edges=%d tree=%.0f compression=%.2fx shared=%.1f%%",
		st.BaseRows, st.Nodes, st.Edges, st.TreeSize, st.Compression,
		100*st.SharedFrac)
}
