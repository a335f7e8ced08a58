// A library package of the module may reach behind the boundary, but not
// to the paper-literal code: no serving package links M.
package server

import (
	"rxview"
	"rxview/internal/dag"
	"rxview/internal/paper" // want "only the experiment harness and tests may import the paper-literal code"
)

type Engine struct {
	Root dag.NodeID
	Snap rxview.Snapshot
	M    paper.Matrix
}
