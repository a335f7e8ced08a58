// A first-party command may reach behind the boundary, but the experiment
// harness is benchrunner's alone.
package main

import (
	"rxview/internal/bench" // want "only rxview/cmd/benchrunner may import the experiment harness"
	"rxview/internal/dag"
)

var (
	_ dag.NodeID
	_ bench.Phases
)

func main() {}
