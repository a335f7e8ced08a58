package internalboundary_test

import (
	"testing"

	"rxview/internal/lint/internalboundary"
	"rxview/internal/lint/linttest"
)

func TestInternalBoundary(t *testing.T) {
	linttest.Run(t, "testdata", internalboundary.Analyzer,
		"rxview", "rxview/server", "rxview/examples/x",
		"rxview/cmd/tool", "rxview/cmd/benchrunner", "rxview/internal/bench")
}
