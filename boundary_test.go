package rxview

// Guards the API boundary: the examples/ programs, which document the
// public API, import no rxview/internal/... package — and
// rxview/internal/bench, the paper's experiment harness, is imported only by
// cmd/benchrunner, so no re-export mirror of it can grow back here; the
// paper-literal code it times, rxview/internal/paper, only by it and by test
// files. (bench/ is a module of its own; the compiler keeps it out of
// internal/.)
//
// The predicates live in internal/lint/internalboundary so `go test` and
// `go run ./cmd/xviewlint ./...` enforce exactly the same rule; this test is
// a thin wrapper over its tree walk. It is in package rxview (not
// rxview_test) because an external test package could not import
// internal/lint without itself breaching the boundary it checks.

import (
	"testing"

	"rxview/internal/lint/internalboundary"
)

func TestOnlyRootPackageImportsInternal(t *testing.T) {
	violations, err := internalboundary.CheckTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("%s: package %s imports %s: %s", v.Pos, v.PkgPath, v.Import, v.Why)
	}
}
