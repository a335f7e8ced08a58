package driver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"rxview/internal/lint/analysis"
	"rxview/internal/lint/loader"
)

// flagCalls reports every call expression; the test source controls where
// diagnostics land relative to the suppression directives.
var flagCalls = &analysis.Analyzer{
	Name: "flagcalls",
	Doc:  "test analyzer: reports every call",
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					pass.Reportf(c.Pos(), "call site")
				}
				return true
			})
		}
		return nil, nil
	},
}

const src = `package p

func sink() {}

func a() {
	sink() // no suppression: finding survives
}

func b() {
	//lint:ignore xviewlint/flagcalls exercised by TestSuppression
	sink()
}

func c() {
	sink() //lint:ignore flagcalls same line, bare analyzer name
}

func d() {
	//lint:ignore flagcalls
	sink()
}

func e() {
	//lint:ignore othercheck justified but for a different analyzer
	sink()
}
`

func run(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]*loader.Package{{
		ImportPath: "p",
		Fset:       fset,
		Files:      []*ast.File{f},
		Pkg:        pkg,
		TypesInfo:  info,
	}}, []*analysis.Analyzer{flagCalls})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestSuppression(t *testing.T) {
	findings := run(t, src)
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+"@"+f.Pos.String()+": "+f.Message)
	}
	// Surviving findings: the unsuppressed call in a (line 6), the call
	// under a justification-less directive in d (line 20), the directive
	// itself as a "suppression" finding (line 19), and the call in e whose
	// directive names a different analyzer (line 25).
	want := map[int]string{
		6:  "flagcalls",
		19: "suppression",
		20: "flagcalls",
		25: "flagcalls",
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(got, "\n"))
	}
	for _, f := range findings {
		if want[f.Pos.Line] != f.Analyzer {
			t.Errorf("unexpected finding %s@%s: %s", f.Analyzer, f.Pos, f.Message)
		}
	}
}
