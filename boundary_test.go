package rxview

// Guards the API boundary: the examples/ programs, which document the
// public API, import no rxview/internal/... package — and
// rxview/internal/bench, the paper's experiment harness, is imported only by
// cmd/benchrunner, so no re-export mirror of it can grow back here; the
// paper-literal code it times, rxview/internal/paper, only by it and by test
// files; a test-support package (internal/testkit) only by test files.
// (bench/ is a module of its own; the compiler keeps it out of internal/.)
//
// The predicates live in internal/lint/internalboundary; this test runs that
// analyzer over the loaded module, so `go test` and
// `go run ./cmd/xviewlint ./...` enforce exactly the same rule. It is in
// package rxview (not rxview_test) because an external test package could
// not import internal/lint without itself breaching the boundary it checks.

import (
	"sync"
	"testing"

	"rxview/internal/lint/analysis"
	"rxview/internal/lint/driver"
	"rxview/internal/lint/internalboundary"
	"rxview/internal/lint/loader"
)

// modulePackages type-checks the module, test files included, once for
// this file's test and reachable_test.go's.
var modulePackages = sync.OnceValues(func() ([]*loader.Package, error) {
	return loader.Load(".", []string{"./..."})
})

func TestOnlyRootPackageImportsInternal(t *testing.T) {
	pkgs, err := modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := driver.Run(pkgs, []*analysis.Analyzer{internalboundary.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.Pos, f.Message)
	}
}
