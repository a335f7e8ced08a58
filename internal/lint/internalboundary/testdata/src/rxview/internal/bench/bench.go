// Stub experiment harness for internalboundary fixtures: it times the
// paper-literal code, so it may import it.
package bench

import (
	"rxview/internal/dag"
	"rxview/internal/paper"
)

type Phases struct {
	Root dag.NodeID
	M    paper.Matrix
}
