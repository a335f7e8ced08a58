// Seeded violation: examples are written against the public API only.
package main

import "rxview/internal/dag" // want "examples are written against the public API alone"

var _ dag.NodeID

func main() {}
