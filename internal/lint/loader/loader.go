// Package loader loads and type-checks the packages of this module for
// analysis, the same way cmd/vet's driver does: the packages under
// analysis are parsed and type-checked from source, and every dependency
// (standard library included) is imported from compiler export data that
// `go list -export` materializes in the build cache. No network, no
// third-party modules, and no duplicated build logic — the go command
// decides what is in each package.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"rxview/internal/lint/analysis"
)

// Package is one type-checked package under analysis.
type Package struct {
	ImportPath string // canonical path ("rxview/server"), brackets stripped

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// TypeErrors collects soft type-check problems. The driver reports
	// them but still runs analyzers that can cope.
	TypeErrors []error
}

// listEntry mirrors the go list -json fields we consume.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ForTest    string
	Module     *struct {
		Main      bool
		GoVersion string
	}
	Error *struct{ Err string }
}

func stripVariant(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

func runGoList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Force the pure-Go build so CompiledGoFiles never reference
	// cgo-generated sources and the export graph is self-contained.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

func decodeList(data []byte) ([]*listEntry, error) {
	var entries []*listEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		e := new(listEntry)
		if err := dec.Decode(e); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Load lists patterns (go package patterns, e.g. ./...), builds export
// data for the full dependency graph including test variants, and
// type-checks every matched package of the main module from source. Test
// files are analyzed: in-package tests ride in the augmented variant,
// external _test packages load separately.
func Load(dir string, patterns []string) ([]*Package, error) {
	matchedOut, err := runGoList(dir, append([]string{"list", "-find", "-json=ImportPath", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	matchedEntries, err := decodeList(matchedOut)
	if err != nil {
		return nil, err
	}
	matched := make(map[string]bool, len(matchedEntries))
	for _, e := range matchedEntries {
		matched[e.ImportPath] = true
	}

	fullOut, err := runGoList(dir, append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,ForTest,Module,Error", "--",
	}, patterns...)...)
	if err != nil {
		return nil, err
	}
	entries, err := decodeList(fullOut)
	if err != nil {
		return nil, err
	}

	byRaw := make(map[string]*listEntry, len(entries))
	augmented := make(map[string]bool) // base paths that have a [T.test] variant
	for _, e := range entries {
		byRaw[e.ImportPath] = e
		if e.ForTest != "" && stripVariant(e.ImportPath) == e.ForTest {
			augmented[e.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, e := range entries {
		path := stripVariant(e.ImportPath)
		if e.Module == nil || !e.Module.Main || strings.HasSuffix(path, ".test") {
			continue // dependencies and synthesized test mains
		}
		if e.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", e.ImportPath, e.Error.Err)
		}
		// The base entry is subsumed by its test-augmented variant, which
		// compiles GoFiles plus the in-package test files.
		if e.ImportPath == path && augmented[path] {
			continue
		}
		base := strings.TrimSuffix(path, "_test")
		if !matched[path] && !matched[base] {
			continue
		}
		p, err := typeCheck(fset, e, byRaw)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func typeCheck(fset *token.FileSet, e *listEntry, byRaw map[string]*listEntry) (*Package, error) {
	p := &Package{
		ImportPath: stripVariant(e.ImportPath),
		Fset:       fset,
	}
	for _, f := range e.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(e.Dir, f)
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		p.Files = append(p.Files, af)
	}

	goVersion := ""
	if e.Module != nil && e.Module.GoVersion != "" {
		goVersion = "go" + e.Module.GoVersion
	}
	conf := types.Config{
		Importer:  newExportImporter(fset, e, byRaw),
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
		Error:     func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.TypesInfo = analysis.NewTypesInfo()
	pkg, err := conf.Check(p.ImportPath, fset, p.Files, p.TypesInfo)
	if err != nil && pkg == nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", e.ImportPath, err)
	}
	p.Pkg = pkg
	return p, nil
}

// newExportImporter resolves the imports of one package under analysis
// against compiler export data. Bracketed test-variant imports ("rxview
// [rxview.test]") are preferred when the consumer is itself a test
// variant, mirroring how the go command links test binaries.
func newExportImporter(fset *token.FileSet, consumer *listEntry, byRaw map[string]*listEntry) types.Importer {
	resolve := func(path string) (*listEntry, error) {
		if consumer.ForTest != "" {
			if e, ok := byRaw[path+" ["+consumer.ForTest+".test]"]; ok {
				return e, nil
			}
		}
		if e, ok := byRaw[path]; ok {
			return e, nil
		}
		return nil, fmt.Errorf("loader: %s: import %q not in the go list graph", consumer.ImportPath, path)
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, err := resolve(path)
		if err != nil {
			return nil, err
		}
		if e.Export == "" {
			return nil, fmt.Errorf("loader: no export data for %q", e.ImportPath)
		}
		return os.Open(e.Export)
	})
}
