package rxview

// Guards the rule that a production file holds only what a
// production path reaches. The test type-checks the module with
// internal/lint/loader, marks every top-level declaration the production
// roots reach, and fails on each func, method, type, var or const of a
// non-test file that stays unmarked. Something only a test calls belongs in
// a _test.go file (or, shared by several packages' tests, in a test-support
// package internalboundary names); something nothing calls goes.
//
// The roots:
//   - every main and init, and the initializer of every package-level var;
//   - the exported API of rxview, rxview/server and rxview/obs (bench/, a
//     module of its own, calls nothing else), and the exported methods of
//     their reached types;
//   - for a reached type that implements an interface declared in a
//     production file of the tree or in a standard package the tree imports
//     (error, fmt.Stringer, json.Marshaler, http.Handler, ...), the methods
//     that interface names, because a dynamic call through an interface
//     names no declaration. Implementation, not a shared name, decides: a
//     Size method is not kept alive by fs.FileInfo alone.
//
// Like boundary_test.go it is in package rxview, because an external test
// package could not import internal/lint without breaching the boundary
// that test checks.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rxview/internal/lint/internalboundary"
	"rxview/internal/lint/loader"
)

// apiPackages are the packages whose exported names are roots.
var apiPackages = []string{"rxview", "rxview/server", "rxview/obs"}

// errorsAnonymous are the interfaces package errors spells inline
// (interface{ Unwrap() error } and the like), which no package scope
// declares.
var errorsAnonymous = func() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	one := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewParam(token.NoPos, nil, "", t)) }
	return []*types.Interface{
		method("Unwrap", nil, one(errType)),
		method("Unwrap", nil, one(types.NewSlice(errType))),
		method("Is", one(errType), one(types.Typ[types.Bool])),
		method("As", one(types.Universe.Lookup("any").Type()), one(types.Typ[types.Bool])),
	}
}()

// allowed are the declarations no production root reaches that stay in a
// production file anyway, each with its reason and the test packages that
// need it. Each is used by several packages' tests and either reads its
// package's internals or, moved to internal/testkit, would put its package
// below testkit and close an import cycle for the tests of that package's
// dependencies.
var allowed = map[string]string{
	"rxview/internal/cow.Sealed.SameChunk": "reads the chunk spine, which only cow sees; " +
		"internal/cow's model test and internal/dag's version test assert that sealed versions share untouched chunks",
	"rxview/internal/lru.Cache.Len": "reads the list under the cache's lock; " +
		"internal/xpath's compiled-path cache tests bound the cache by it",
	"rxview/internal/paper.Matrix.ValidateMirror": "reads M's anc and desc rows; " +
		"internal/core's maintenance oracle and internal/paper's tests check that the rows mirror each other",
	"rxview/internal/paper.Matrix.Diff": "reads M's rows; " +
		"internal/core's maintenance oracle and internal/paper's tests print what differs",
	"rxview/internal/paper.ComputeSparse": "the independent sparse oracle for M; " +
		"internal/core's maintenance oracle and internal/paper's tests; in internal/testkit it would put " +
		"paper and xpath below testkit, whose tests import it",
	"rxview/internal/paper.Topo.Validate": "reads L's entries and position index; " +
		"internal/core's maintenance oracle and internal/paper's tests check that the delta-stepped L is an order of the DAG",
}

func TestProductionFilesHoldOnlyReachedCode(t *testing.T) {
	pkgs, err := modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, d := range unreached(pkgs, apiPackages, internalboundary.TestSupport) {
		if _, ok := allowed[d.key]; ok {
			used[d.key] = true
			continue
		}
		t.Errorf("%s: %s (%d lines) is reached by no production root: "+
			"delete it, or move it into a _test.go file", d.pos, d.name, d.lines)
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("allow-list entry %s names nothing unreached: drop it", key)
		}
	}
}

// TestReachabilityFixture runs the checker over testdata/reachable, a module
// that holds one of each case: what it must report and what it must not.
func TestReachabilityFixture(t *testing.T) {
	pkgs, err := loader.Load(filepath.Join("testdata", "reachable"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unreached(pkgs, []string{"fixture"}, []string{"fixture/internal/kit"}) {
		got = append(got, d.name)
	}
	slices.Sort(got)
	want := []string{
		"lib.Dead",             // an unreached func
		"lib.OnlyTests",        // a func only a _test.go calls
		"lib.Square.Perimeter", // an unreached method
	}
	if !slices.Equal(got, want) {
		t.Errorf("reported\n  %q\nwant\n  %q", got, want)
	}
}

// decl is one top-level declaration of a production file.
type decl struct {
	key   string // objKey of its object; "" for roots no caller names
	name  string // pkg.Name or pkg.Recv.Method, for the report
	pos   token.Position
	lines int // with its doc comment
	walk  []ast.Node
	info  *types.Info
}

type finding struct {
	key   string
	name  string
	pos   token.Position
	lines int
}

// unreached returns, sorted by position, the top-level declarations of the
// non-test files of pkgs that no root reaches. Packages within exempt (the
// test-support packages) are neither searched nor roots.
func unreached(pkgs []*loader.Package, api, exempt []string) []finding {
	within := func(path string, list []string) bool {
		return slices.ContainsFunc(list, func(p string) bool {
			return path == p || strings.HasPrefix(path, p+"/")
		})
	}
	type prodFile struct {
		f   *ast.File
		pkg *loader.Package
	}
	var files []prodFile
	module := make(map[string]bool)
	for _, p := range pkgs {
		if strings.HasSuffix(p.ImportPath, "_test") || within(p.ImportPath, exempt) {
			continue
		}
		module[p.ImportPath] = true
		for _, f := range p.Files {
			if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				files = append(files, prodFile{f, p})
			}
		}
	}

	pinned := interfacePins(pkgs, module)
	decls := make(map[string]*decl)
	var roots []*decl
	add := func(pf prodFile, key, name string, doc *ast.CommentGroup, node ast.Node, walk ...ast.Node) *decl {
		fset := pf.pkg.Fset
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &decl{
			key:   key,
			name:  pf.pkg.Pkg.Name() + "." + name,
			pos:   fset.Position(node.Pos()),
			lines: fset.Position(node.End()).Line - fset.Position(start).Line + 1,
			walk:  walk,
			info:  pf.pkg.TypesInfo,
		}
		if key != "" {
			decls[key] = d
		}
		return d
	}
	for _, pf := range files {
		path := pf.pkg.ImportPath
		isAPI := slices.Contains(api, path)
		for _, gd := range pf.f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				obj := pf.pkg.TypesInfo.Defs[gd.Name].(*types.Func)
				key := objKey(obj)
				name := gd.Name.Name
				if gd.Recv != nil {
					name = recvNamed(obj).Obj().Name() + "." + name
				}
				d := add(pf, key, name, gd.Doc, gd, gd)
				switch {
				case gd.Recv == nil && (name == "init" || name == "main" && pf.pkg.Pkg.Name() == "main"):
					delete(decls, key) // init may repeat; neither is named by a caller
					d.key = ""
					roots = append(roots, d)
				case gd.Recv != nil && isAPI && gd.Name.IsExported():
					recv := objKey(recvNamed(obj).Obj())
					pinned[recv] = append(pinned[recv], key)
				case gd.Recv == nil && isAPI && gd.Name.IsExported():
					roots = append(roots, d)
				}
			case *ast.GenDecl:
				var last *ast.ValueSpec // the spec an implicit const repeats
				for _, spec := range gd.Specs {
					doc := gd.Doc
					if len(gd.Specs) > 1 || gd.Lparen.IsValid() {
						doc = nil
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						obj := pf.pkg.TypesInfo.Defs[s.Name]
						d := add(pf, objKey(obj), s.Name.Name, doc, s, s)
						if isAPI && s.Name.IsExported() {
							roots = append(roots, d)
						}
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						walk := []ast.Node{s}
						if s.Values != nil || s.Type != nil {
							last = s
						} else if last != nil {
							walk = append(walk, last)
						}
						if gd.Tok == token.VAR && s.Values != nil {
							roots = append(roots, &decl{walk: []ast.Node{s}, info: pf.pkg.TypesInfo})
						}
						for _, id := range s.Names {
							if id.Name == "_" {
								continue
							}
							d := add(pf, objKey(pf.pkg.TypesInfo.Defs[id]), id.Name, doc, s, walk...)
							if isAPI && id.IsExported() {
								roots = append(roots, d)
							}
						}
					}
				}
			}
		}
	}
	reached := make(map[*decl]bool)
	var queue []*decl
	var reach func(*decl)
	reach = func(d *decl) {
		if reached[d] {
			return
		}
		reached[d] = true
		queue = append(queue, d)
		for _, m := range pinned[d.key] {
			if pd, ok := decls[m]; ok {
				reach(pd)
			}
		}
	}
	for _, d := range roots {
		reach(d)
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, n := range d.walk {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if dd, ok := decls[objKey(d.info.Uses[id])]; ok {
						reach(dd)
					}
				}
				return true
			})
		}
	}

	var out []finding
	for _, d := range decls {
		if !reached[d] {
			out = append(out, finding{d.key, d.name, d.pos, d.lines})
		}
	}
	slices.SortFunc(out, func(a, b finding) int {
		if c := strings.Compare(a.pos.Filename, b.pos.Filename); c != 0 {
			return c
		}
		return a.pos.Line - b.pos.Line
	})
	return out
}

// interfacePins maps each named type of the module packages to the methods
// a dynamic call may reach once a value of it exists: for every interface
// it implements, the methods that interface names. The interfaces are those
// a package sees: the literals of its production files, the named ones of
// its scope and of every package it imports, error, and
// errorsAnonymous. Each package is its own type universe (its imports come
// from export data), so the test runs there, over the module types the
// package can see. Generic types are left out: a method of one that only an
// interface calls would be reported, never missed.
func interfacePins(pkgs []*loader.Package, module map[string]bool) map[string][]string {
	pins := make(map[string][]string)
	pinned := make(map[[2]string]bool)
	for _, p := range pkgs {
		if !module[p.ImportPath] {
			continue
		}
		ifaces := slices.Clone(errorsAnonymous)
		ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := p.TypesInfo.Types[it]; ok {
						ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
					}
				}
				return true
			})
		}
		byMethod := make(map[string][]*types.Named) // module types by method name
		seen := make(map[*types.Package]bool)
		var visit func(*types.Package)
		visit = func(pkg *types.Package) {
			if seen[pkg] {
				return
			}
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				if it, ok := named.Underlying().(*types.Interface); ok {
					if it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
					continue
				}
				if !module[pkg.Path()] || named.TypeParams().Len() > 0 {
					continue
				}
				ms := types.NewMethodSet(types.NewPointer(named))
				for i := range ms.Len() {
					m := ms.At(i).Obj().Name()
					byMethod[m] = append(byMethod[m], named)
				}
			}
			for _, imp := range pkg.Imports() {
				visit(imp)
			}
		}
		visit(p.Pkg)
		for _, it := range ifaces {
			if it.NumMethods() == 0 {
				continue
			}
			for _, named := range byMethod[it.Method(0).Name()] {
				ptr := types.NewPointer(named)
				if !types.Implements(ptr, it) {
					continue
				}
				tkey := objKey(named.Obj())
				for i := range it.NumMethods() {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
					mkey := objKey(obj)
					if !pinned[[2]string{tkey, mkey}] {
						pinned[[2]string{tkey, mkey}] = true
						pins[tkey] = append(pins[tkey], mkey)
					}
				}
			}
		}
	}
	return pins
}

// objKey names a package-level object or a method the same way whether it
// was type-checked from source or imported from export data; "" for
// anything else (locals, fields, type parameters).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		named := recvNamed(fn.Origin())
		if named == nil {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed is the named type a method is declared on.
func recvNamed(fn *types.Func) *types.Named {
	t := types.Unalias(fn.Signature().Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	if named == nil {
		return nil
	}
	return named.Origin()
}
