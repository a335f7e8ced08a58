// A library package of the module may reach behind the boundary.
package server

import (
	"rxview"
	"rxview/internal/dag"
)

type Engine struct {
	Root dag.NodeID
	Snap rxview.Snapshot
}
