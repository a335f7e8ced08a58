// Seeded violation: a non-gateway package reaching behind the boundary.
package server

import (
	"rxview"
	"rxview/internal/dag" // want "only rxview, rxview/obs and rxview/cmd/... may import internal packages"
)

type Engine struct {
	Root dag.NodeID
	Snap rxview.Snapshot
}
