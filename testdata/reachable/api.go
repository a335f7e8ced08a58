// Package fixture is the reachability checker's fixture module. Its
// exported API is a root, as rxview's is.
package fixture

import "fixture/internal/lib"

// Exported is an exported API func: a root, never reported.
func Exported() int { return lib.Measure(lib.Square{}) }
