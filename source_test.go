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
// from the toolchain's export data.
type sourceTree struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // by import path
}

// Import implements types.Importer.
func (st *sourceTree) Import(path string) (*types.Package, error) {
	if pkg, ok := st.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return st.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(st.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: st}
	pkg, err := conf.Check(path, st.fset, files, st.info)
	if err != nil {
		return nil, err
	}
	st.pkgs[path], st.files[path] = pkg, files
	return pkg, nil
}

// TestMapRangesAnnotated is the determinism contract checked at the source:
// a run must be a pure function of (config, seed), and Go randomizes map
// iteration order, so every range over a map in non-test internal/ code
// carries an order-free note saying why its order cannot leak into a
// result (a delete below a floor, a count, keys sorted before use). The
// replay goldens catch an order leak only on the paths some pinned run
// executes; this catches it on every path.
func TestMapRangesAnnotated(t *testing.T) {
	st := &sourceTree{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		info:  &types.Info{Types: map[ast.Expr]types.TypeAndValue{}},
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
	ranges := 0
	for _, path := range slices.Sorted(maps.Keys(st.files)) {
		for _, f := range st.files[path] {
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
		}
	}
	t.Logf("%d ranges over maps in %d packages", ranges, len(st.files))
}
