// A first-party command may reach behind the boundary, but the experiment
// harness is benchrunner's alone, and a test-support package is for tests.
package main

import (
	"rxview/internal/bench" // want "only rxview/cmd/benchrunner may import the experiment harness"
	"rxview/internal/dag"
	"rxview/internal/testkit" // want "only tests may import a test-support package"
)

var (
	_ dag.NodeID
	_ bench.Phases
	_ = testkit.Must(0, nil)
)

func main() {}
