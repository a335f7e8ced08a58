// Package lint is the registry of the xviewlint analyzer suite, and the
// place where each analyzer's price is written down. cmd/xviewlint links
// this package (`go run ./cmd/xviewlint ./...`, the one driver);
// boundary_test.go and the per-analyzer fixture tests run the same
// analyzers in-process.
//
// An analyzer earns its lines only if a violation of its rule, seeded into
// the real tree, turns nothing else red. PR 26 measured that. Each row is
// one seeded violation (file:line as of that PR) and who caught it: the
// compiler (`go build ./...`), `go vet ./...`, `go test -race` over
// ./internal/cow ./internal/dag ./internal/paper ./internal/core ./server .
// and the touched package, and xviewlint. "RED only": nothing else saw it.
//
//	    seeded violation                            at                              build vet  test -race xviewlint
//	errwrap
//	 3a `== rxview.ErrDegraded` in deliver          server/engine.go:588            ok    ok   RED [a]    RED
//	 3b `%v` for the first `%w` in applyTx          server/engine.go:321            ok    ok   ok         RED only
//	obshotpath
//	 6a e.met.queryDur.Snapshot() in Query          server/engine.go:229            ok    ok   ok         RED only
//	ctxflow
//	 7a rule 2: Batch passes e.stopCtx, not ctx     server/engine.go:267            ok    ok   RED [b]    RED
//	 7b rule 1: context.Background() in the prober  server/overload.go:136          ok    ok   ok         RED only
//	sealedmut
//	 4c d.Children(root)[0] = ... in the sweep      internal/xpath/eval.go:491      ok    ok   RED [c]    RED
//	 4b ks := d.Children(root); swap ks[0], ks[1]   internal/xpath/eval.go:491      ok    ok   RED [d]    RED [e]
//	 4d d.Children(id)[0] = ... in Unfold's loop    internal/dag/analyze.go:183     ok    ok   RED [f]    RED
//	 4e the same on Unfold's over-budget branch     internal/dag/analyze.go:174     ok    ok   ok         RED only
//	internalboundary
//	 8a an example imports rxview/internal/xpath    examples/quickstart/main.go:14  ok    ok   RED [g]    RED
//
// [a] TestEngineChaosSoak. [b] TestQueuedDeadlineExpiry. [c] 18 DATA RACE
// reports, 3 tests. [d] 28 reports, 19 tests. [e] green before PR 26: the
// false negative that PR fixed. [f] TestSnapshotCOWDifferential. [g] the
// tier-1 TestOnlyRootPackageImportsInternal. Row 8a was re-measured when
// server/ was allowed behind the boundary (it had seeded the import into
// server/engine.go), with ./examples/... added to the test run.
//
// Why each stays. errwrap and obshotpath guard contracts whose breach
// changes no test's outcome: a flattened error chain, a mutex on the
// memo-miss path. No `go vet` pass overlaps errwrap's three rules (vet
// checks what a %w is applied to, not that an error got one). ctxflow's
// rule 1 is alone. sealedmut overlaps the race detector wherever a test
// runs the mutated path beside a reader, which is every read path the
// stress tests drive; it is alone on branches no test takes (4e), and it
// names the line where -race prints dozens of reports from tests far from
// the store. Its limit: an aliasing accessor's result is followed through
// one binding to a local and no further.
// internalboundary and the tier-1 test are one predicate by construction:
// the test (boundary_test.go) runs this analyzer over the loaded module.
// bench/, a module of its own, is kept out of internal/ by the compiler.
//
// Two analyzers were deleted on the same evidence, with the second driver
// (internal/lint/unitchecker and the `go vet -vettool` CI step, which
// proved the same verdicts twice; both drivers agreed on every probe).
// cowdiscipline (a store inside internal/cow that skips own): Set storing
// through a.blocks → eight tests red under -race; dag reaching the spine →
// the compiler; its one unique catch, a new uncalled Array.Fill storing in
// place, is now internal/cow's TestMethodInventory (an exported method the
// model test does not drive fails it). singlewriter (writes to the
// writer-only Engine.view; stores through ep.Load()): Degraded
// re-assigning e.view and Query storing through e.ep.Load() → 12 and 27
// DATA RACE reports in ./server; the hazard it could not see by design — a
// reader goroutine *reading* the live view, `_ = e.view.Stats()` in
// Engine.Stats, green everywhere before — is now red in server's
// TestReadSideNeverTouchesLiveView. Both contracts rest on `go test -race`,
// which CI gates on.
//
// faultpoint (no fault.Point a chaos spec cannot name) went when the type
// took its rule over: a Point is a struct with one unexported field, so
// each of its probes — `fault.Hit("storage.aply")` seeded into core's
// applyDR, a `fault.Point("x")` conversion, a `Point` constant declared
// outside internal/fault — fails `go build ./...`.
package lint

import (
	"rxview/internal/lint/analysis"
	"rxview/internal/lint/ctxflow"
	"rxview/internal/lint/errwrap"
	"rxview/internal/lint/internalboundary"
	"rxview/internal/lint/obshotpath"
	"rxview/internal/lint/sealedmut"
)

// All returns the full xviewlint suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		errwrap.Analyzer,
		internalboundary.Analyzer,
		obshotpath.Analyzer,
		sealedmut.Analyzer,
	}
}
