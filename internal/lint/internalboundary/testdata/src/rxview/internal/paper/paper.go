// Stub paper-literal reference code for internalboundary fixtures.
package paper

import "rxview/internal/dag"

type Matrix struct{ Root dag.NodeID }
