// Seeded violation: the root package is a gateway to the implementation,
// not to the experiment harness — a re-export mirror would put it back in
// every serving binary's closure.
package rxview

import "rxview/internal/bench" // want "only rxview/cmd/benchrunner may import the experiment harness"

type Phases = bench.Phases
