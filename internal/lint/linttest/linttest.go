// Package linttest runs one analyzer over GOPATH-style fixture trees and
// checks its diagnostics against // want comments — the analysistest
// workflow of x/tools, reimplemented over the local analysis framework.
//
// Fixtures live under <testdata>/src/<importpath>/*.go. Imports resolve
// only inside the fixture tree, so fixtures that need "context", "fmt" or
// "rxview/internal/dag" declare minimal stubs at those exact paths: the
// analyzers match packages by import path and symbol name, so a stub is
// indistinguishable from the real thing, and the fixtures stay hermetic
// (no network, no dependence on the surrounding repository state).
//
// Expectation syntax, per offending line:
//
//	bad() // want "regexp" "second regexp"
//
// Every diagnostic must match a want on its line and every want must be
// matched by at least one diagnostic.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rxview/internal/lint/analysis"
)

// Run loads each fixture package and applies the analyzer, reporting
// mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	ld := &fixtureLoader{
		root:  testdata,
		fset:  token.NewFileSet(),
		cache: make(map[string]*fixturePkg),
	}
	for _, pat := range patterns {
		pkg, err := ld.load(pat)
		if err != nil {
			t.Errorf("loading fixture %s: %v", pat, err)
			continue
		}
		check(t, ld.fset, pkg, a)
	}
}

type fixturePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type fixtureLoader struct {
	root  string
	fset  *token.FileSet
	cache map[string]*fixturePkg
}

func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if p, ok := l.cache[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return p, nil
	}
	l.cache[path] = nil // cycle guard
	dir := filepath.Join(l.root, "src", filepath.FromSlash(path))
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &fixturePkg{path: path}
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, de.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p.info = analysis.NewTypesInfo()
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			dep, err := l.load(ipath)
			if err != nil {
				return nil, fmt.Errorf("import %q: %w", ipath, err)
			}
			return dep.pkg, nil
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	p.pkg, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type wantKey struct {
	file string
	line int
}

func check(t *testing.T, fset *token.FileSet, p *fixturePkg, a *analysis.Analyzer) {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				res, err := parseWants(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Errorf("%s: bad want comment: %v", pos, err)
					continue
				}
				key := wantKey{pos.Filename, pos.Line}
				wants[key] = append(wants[key], res...)
			}
		}
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     p.files,
		Pkg:       p.pkg,
		TypesInfo: p.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Errorf("%s on %s: %v", a.Name, p.path, err)
		return
	}

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := wantKey{pos.Filename, pos.Line}
		ok := false
		for _, re := range wants[key] {
			if re.MatchString(d.Message) {
				matched[re] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: unexpected %s diagnostic: %s", pos, a.Name, d.Message)
		}
	}
	var missing []string
	for key, res := range wants {
		for _, re := range res {
			if !matched[re] {
				missing = append(missing, fmt.Sprintf("%s:%d: no %s diagnostic matching %q",
					key.file, key.line, a.Name, re))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}

// parseWants splits `"re1" "re2"` (double-quoted or backquoted Go string
// literals) into compiled regexps.
func parseWants(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for s = strings.TrimSpace(s); s != ""; {
		quoted, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		lit, err := strconv.Unquote(quoted)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, err
		}
		out = append(out, re)
		s = strings.TrimSpace(s[len(quoted):])
	}
	return out, nil
}
