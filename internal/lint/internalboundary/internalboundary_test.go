package internalboundary_test

import (
	"path/filepath"
	"slices"
	"testing"

	"rxview/internal/lint/internalboundary"
	"rxview/internal/lint/linttest"
)

func TestInternalBoundary(t *testing.T) {
	linttest.Run(t, "testdata", internalboundary.Analyzer,
		"rxview", "rxview/server", "rxview/examples/x",
		"rxview/cmd/tool", "rxview/cmd/benchrunner", "rxview/internal/bench")
}

// TestCheckTreeAgrees walks the same fixture module the way the root
// package's boundary test walks the repository: the tree walk must flag
// exactly the imports the analyzer's want comments mark.
func TestCheckTreeAgrees(t *testing.T) {
	violations, err := internalboundary.CheckTree(filepath.Join("testdata", "src", "rxview"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range violations {
		got = append(got, v.PkgPath+" -> "+v.Import)
	}
	slices.Sort(got)
	want := []string{
		"rxview -> rxview/internal/bench",
		"rxview/cmd/tool -> rxview/internal/bench",
		"rxview/examples/x -> rxview/internal/dag",
		"rxview/server -> rxview/internal/paper",
	}
	if !slices.Equal(got, want) {
		t.Errorf("CheckTree flagged\n  %q\nwant\n  %q", got, want)
	}
}
