package cowdiscipline_test

import (
	"testing"

	"rxview/internal/lint/cowdiscipline"
	"rxview/internal/lint/linttest"
)

func TestCowDiscipline(t *testing.T) {
	linttest.Run(t, "testdata", cowdiscipline.Analyzer, "rxview/internal/cow")
}
