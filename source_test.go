// Source rules: checks made on the type-checked source of the non-test code
// under internal/, where the replay goldens and tests can only sample paths.
//
//   - TestMapRangesAnnotated, TestGoStatementsConfined, TestImportsConfined
//     and TestNoGlobalRandCalls hold the determinism contract: a run is a
//     pure function of (config, seed), on one goroutine.
//   - TestExportsHaveCallers holds production code to what production
//     calls. An exported name in internal/ must be used by non-test code in
//     internal/, cmd/bench or perf/, or be a method an interface needs. The
//     CLI and the wall-clock benchmark count as callers because they are the
//     programs internal/ exists for; both are type-checked from source with
//     the same importer, since they import only the standard library and
//     repro/internal/... A name only tests reach goes to its package's
//     export_test.go, or its tests go to the production path.
//   - TestFieldsHaveWriters holds config to what production sets. An
//     exported field of an exported struct in internal/ must be written by
//     non-test code in internal/, cmd/bench or perf/; a knob only tests set
//     is unexported, and the tests in its package set it.

package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// orderFreeNote is the annotation a range over a map needs on the line
// above it: a one-line claim, for a reviewer to check, that nothing the
// loop produces depends on Go's randomized map order.
const orderFreeNote = "// order-free: "

// sourceTree type-checks the module's non-test code under internal/ from
// source, one package at a time in import order; the standard library comes
// from the toolchain's export data. The callers (callerDirs) are checked
// into the same Info but are not among files: only TestExportsHaveCallers
// and TestFieldsHaveWriters read them, as uses and writes.
type sourceTree struct {
	fset        *token.FileSet
	std         types.Importer
	info        *types.Info
	pkgs        map[string]*types.Package
	files       map[string][]*ast.File // by import path, internal/ only
	callers     []*types.Package
	callerFiles []*ast.File
}

// callerDirs are the programs outside internal/ whose calls count as
// production calls: the CLI, and the wall-clock benchmark (its own module,
// which replaces repro with this tree). Both import only the standard
// library and repro/internal/..., so the tree's importer checks them.
var callerDirs = []string{"cmd/bench", "perf"}

// Import implements types.Importer.
func (st *sourceTree) Import(path string) (*types.Package, error) {
	if pkg, ok := st.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return st.std.Import(path)
	}
	pkg, files, err := st.check(path, dir)
	if err != nil {
		return nil, err
	}
	st.pkgs[path], st.files[path] = pkg, files
	return pkg, nil
}

// check parses the non-test Go files of dir and type-checks them as path.
func (st *sourceTree) check(path, dir string) (*types.Package, []*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(st.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: st}
	pkg, err := conf.Check(path, st.fset, files, st.info)
	return pkg, files, err
}

// internalSource type-checks every package under internal/ once per test
// binary and returns the tree every source rule below walks.
func internalSource(t *testing.T) *sourceTree {
	t.Helper()
	if loadedSource != nil {
		return loadedSource
	}
	st := &sourceTree{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		_, err = st.Import("repro/" + filepath.ToSlash(path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.files) < 20 {
		t.Fatalf("type-checked only %d packages under internal/", len(st.files))
	}
	for _, dir := range callerDirs {
		pkg, files, err := st.check("repro/"+dir, dir)
		if err != nil {
			t.Fatal(err)
		}
		st.callers = append(st.callers, pkg)
		st.callerFiles = append(st.callerFiles, files...)
	}
	loadedSource = st
	return st
}

var loadedSource *sourceTree

// eachFile calls fn for every non-test file under internal/, in path order,
// with the file's slash-separated path.
func (st *sourceTree) eachFile(fn func(path string, f *ast.File)) {
	for _, pkg := range slices.Sorted(maps.Keys(st.files)) {
		for _, f := range st.files[pkg] {
			fn(filepath.ToSlash(st.fset.Position(f.Pos()).Filename), f)
		}
	}
}

// allowed reports whether path is one of sites: a file, or every file of
// a package directory when the site ends in "/".
func allowed(path string, sites []string) bool {
	return slices.ContainsFunc(sites, func(site string) bool {
		return path == site || strings.HasSuffix(site, "/") && filepath.ToSlash(filepath.Dir(path))+"/" == site
	})
}

// TestMapRangesAnnotated is the determinism contract checked at the source:
// a run must be a pure function of (config, seed), and Go randomizes map
// iteration order, so every range over a map in non-test internal/ code
// carries an order-free note saying why its order cannot leak into a
// result (a delete below a floor, a count, keys sorted before use). The
// replay goldens catch an order leak only on the paths some pinned run
// executes; this catches it on every path.
func TestMapRangesAnnotated(t *testing.T) {
	st := internalSource(t)
	ranges := 0
	st.eachFile(func(_ string, f *ast.File) {
		noted := map[int]bool{} // lines holding an order-free note
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if why, ok := strings.CutPrefix(c.Text, orderFreeNote); ok && strings.TrimSpace(why) != "" {
					noted[st.fset.Position(c.Pos()).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := st.info.Types[rs.X].Type.Underlying().(*types.Map); !isMap {
				return true
			}
			ranges++
			if pos := st.fset.Position(rs.For); !noted[pos.Line-1] {
				t.Errorf("%s: range over a map without an %q note on the line above", pos, strings.TrimSpace(orderFreeNote))
			}
			return true
		})
	})
	t.Logf("%d ranges over maps in %d packages", ranges, len(st.files))
}

// goSites are the only files that may start a goroutine: the sweep pool,
// which runs whole runs side by side. A run itself is one thread.
var goSites = []string{"internal/runner/stream.go"}

// TestGoStatementsConfined: no goroutine starts outside the sweep pool, so
// nothing inside a run can interleave.
func TestGoStatementsConfined(t *testing.T) {
	st := internalSource(t)
	st.eachFile(func(path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !allowed(path, goSites) {
				t.Errorf("%s: go statement outside %v", st.fset.Position(g.Go), goSites)
			}
			return true
		})
	})
}

// importSites lists, per restricted import, the only files (or packages,
// ending in "/") under internal/ that may import it. time: a run reads no
// clock. sync/atomic: the sweep pool. sync: the sweep pool, wire's
// process-wide buffer pool, gf256's table Once, coin's dealer and dealer
// set, and trace's recorder. os: the checkpoint store, sweep and search
// manifests, and the two REPRO_HARNESS_FULL switches in experiments. core,
// the paper's agreement engine: the stacks built on it, the adversaries
// and harnesses that drive it, and within smr only the ordering plane, so
// a new engine under the log replaces one file.
var importSites = map[string][]string{
	"time":        nil,
	"sync/atomic": {"internal/runner/"},
	"sync": {"internal/runner/", "internal/wire/wire.go", "internal/gf256/gf256.go",
		"internal/coin/dealer.go", "internal/coin/dealerset.go", "internal/trace/"},
	"os": {"internal/ckpt/store.go", "internal/runner/checkpoint.go", "internal/search/search.go",
		"internal/experiments/throughput.go", "internal/experiments/dissemination.go"},
	"repro/internal/core": {"internal/acs/", "internal/adversary/", "internal/runner/", "internal/baseline/",
		"internal/experiments/memory.go", "internal/smr/ordering.go"},
}

// TestImportsConfined: clocks, atomics, locks, the operating system and the
// agreement engine are reached only from the sites importSites names.
func TestImportsConfined(t *testing.T) {
	st := internalSource(t)
	st.eachFile(func(path string, f *ast.File) {
		for _, im := range f.Imports {
			imp := strings.Trim(im.Path.Value, `"`)
			if sites, restricted := importSites[imp]; restricted && !allowed(path, sites) {
				t.Errorf("%s: imports %q outside %v", st.fset.Position(im.Pos()), imp, sites)
			}
		}
	})
}

// TestNoGlobalRandCalls: every random draw comes from a seeded *rand.Rand,
// never from math/rand's process-wide source, so a run is a function of its
// seed. Only the constructors New and NewSource may be called at package
// level.
func TestNoGlobalRandCalls(t *testing.T) {
	st := internalSource(t)
	st.eachFile(func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if name, ok := st.info.Uses[pkg].(*types.PkgName); ok && name.Imported().Path() == "math/rand" &&
				sel.Sel.Name != "New" && sel.Sel.Name != "NewSource" {
				t.Errorf("%s: package-level math/rand call rand.%s", st.fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// TestExportsHaveCallers: production code is what production calls. Every
// package-level exported name in non-test internal/ code, and every exported
// method of a named type declared there, must either be used from non-test
// code in internal/ or callerDirs, or be a method its type (as a value or a
// pointer) needs to satisfy an interface that has it: one declared in the
// tree, one of a standard-library package the tree imports, or error. A name
// only tests reach belongs in its package's export_test.go, or its tests
// belong on the production path.
func TestExportsHaveCallers(t *testing.T) {
	st := internalSource(t)
	// A method's receiver names the method's own type, which is no use of
	// that type: otherwise any type with a method would count as called.
	receivers := map[*ast.Ident]bool{}
	st.eachFile(func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	})
	used := map[types.Object]bool{}
	// order-free: fills a set.
	for id, obj := range st.info.Uses {
		if receivers[id] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}
	ifaces := st.interfaces()
	viaInterface := func(named *types.Named, m *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return false // Implements is unspecified for an uninstantiated type
		}
		for _, iface := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}
	uncalled := 0
	report := func(obj types.Object, name string) {
		uncalled++
		t.Errorf("%s: exported %s has no production caller", st.fset.Position(obj.Pos()), name)
	}
	for _, path := range slices.Sorted(maps.Keys(st.files)) {
		pkg := st.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !used[obj] {
				report(obj, pkg.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if types.IsInterface(named) {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() && !used[m] && !viaInterface(named, m) {
					report(m, pkg.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	if uncalled > 0 {
		t.Logf("%d exported names with no production caller", uncalled)
	}
}

// TestFieldsHaveWriters: a config knob is something production sets. Every
// exported field of an exported struct type in non-test internal/ code must
// be written by non-test code in internal/ or callerDirs. A write is an
// assignment, ++ or --, &x.F, a keyed or positional composite-literal
// element, or the receiver of a pointer method (called or taken as a
// value, both of which take its address), reached through any chain of
// selectors and index expressions: a.Checks.Observe(v) and
// tele.Kinds[k].Dropped++ write every field on the chain. A field only
// tests set is unexported, and its tests set it from inside the package.
func TestFieldsHaveWriters(t *testing.T) {
	st := internalSource(t)
	written := map[*types.Var]bool{}
	// markPath marks the fields a selection steps through: the embedded
	// ones it passes implicitly and, for a field selection, the field.
	markPath := func(sel *types.Selection) {
		path := sel.Index()
		if sel.Kind() == types.MethodVal {
			path = path[:len(path)-1] // the last index is the method's
		}
		typ := sel.Recv()
		for _, i := range path {
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			field := typ.Underlying().(*types.Struct).Field(i)
			written[field.Origin()] = true
			typ = field.Type()
		}
	}
	// markChain marks every field on the selector and index chain of e.
	markChain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := st.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					markPath(sel)
				}
				e = x.X
			default:
				return
			}
		}
	}
	var files []*ast.File
	st.eachFile(func(_ string, f *ast.File) { files = append(files, f) })
	for _, f := range append(files, st.callerFiles...) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markChain(lhs)
				}
			case *ast.IncDecStmt:
				markChain(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markChain(x.X)
				}
			case *ast.CompositeLit:
				typ := st.info.Types[x].Type
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				fields, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := st.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[v.Origin()] = true
						}
					} else {
						written[fields.Field(i).Origin()] = true
					}
				}
			case *ast.SelectorExpr:
				sel := st.info.Selections[x]
				if sel == nil || sel.Kind() != types.MethodVal {
					break
				}
				if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					markPath(sel)
					markChain(x.X)
				}
			}
			return true
		})
	}
	unwritten := 0
	for _, path := range slices.Sorted(maps.Keys(st.files)) {
		pkg := st.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			fields, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for field := range fields.Fields() {
				if field.Exported() && !written[field] {
					unwritten++
					t.Errorf("%s: exported field %s.%s.%s has no production writer",
						st.fset.Position(field.Pos()), pkg.Name(), name, field.Name())
				}
			}
		}
	}
	if unwritten > 0 {
		t.Logf("%d exported fields with no production writer", unwritten)
	}
}

// interfaces returns every interface a method may be called through: error,
// the named interfaces of the tree's packages and of the packages they
// import, and the interface literals the tree writes.
func (st *sourceTree) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(typ types.Type) {
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return // Implements is unspecified for an uninstantiated type
		}
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.IsMethodSet() {
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	// order-free: the rule asks only whether any interface matches.
	for _, pkg := range slices.Concat(slices.Collect(maps.Values(st.pkgs)), st.callers) {
		for _, p := range slices.Concat(pkg.Imports(), []*types.Package{pkg}) {
			if seen[p] {
				continue
			}
			seen[p] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	// order-free: the rule asks only whether any interface matches.
	for _, tv := range st.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}
