// Seeded violation: examples are written against the public API only.
package main

import "rxview/internal/dag" // want "only rxview, rxview/obs and rxview/cmd/... may import internal packages"

var _ dag.NodeID

func main() {}
