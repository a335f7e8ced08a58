// The one sanctioned importer of the experiment harness.
package main

import "rxview/internal/bench"

var _ bench.Phases

func main() {}
