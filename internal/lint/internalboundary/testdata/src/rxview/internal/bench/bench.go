// Stub experiment harness for internalboundary fixtures.
package bench

import "rxview/internal/dag"

type Phases struct{ Root dag.NodeID }
