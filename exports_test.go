package tanoq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed are the exported names no non-test code reads
// that stay exported anyway, each with the reason.
var testOnlyExportsAllowed = map[string]string{
	"Unwrap":      "errors.Is and errors.As call it through the interface",
	"MarshalJSON": "encoding/json calls it through the interface",
	"Aborted":     "runner.RunCellsCtx's deadline contract promises it to host-level loops in workload hooks",
}

// TestNoTestOnlyExports fails on an exported name that only tests read:
// a function, method, type, constant, variable, struct field or
// interface method declared in non-test Go whose name appears nowhere
// else in non-test Go (cmd/, benchmark/ and examples/ count as readers).
// The scan matches names, not types, so a name read anywhere counts as
// read everywhere; what it reports is certain, what it passes may not be.
// Such a name is deleted, un-exported, or allowed above with the reader
// that needs it.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string][]string{} // name → "pkg.Name" or "pkg.Type.Name" declarations
	declPos := map[token.Pos]bool{}
	reads := map[string]int{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		pkg := f.Name.Name
		declare := func(id *ast.Ident, owner string) {
			declPos[id.Pos()] = true
			if id.IsExported() {
				decls[id.Name] = append(decls[id.Name], pkg+"."+owner+id.Name)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				owner := ""
				if d.Recv != nil {
					owner = recvType(d.Recv.List[0].Type) + "."
				}
				declare(d.Name, owner)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n, "")
						}
					case *ast.TypeSpec:
						declare(s.Name, "")
						for _, m := range memberIdents(s.Type) {
							declare(m, s.Name.Name+".")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declPos[id.Pos()] {
				reads[id.Name]++
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported declaration found; the scan is vacuous")
	}
	var unread []string
	for name, where := range decls {
		if reads[name] == 0 && testOnlyExportsAllowed[name] == "" {
			unread = append(unread, where...)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s is exported, but only tests read it", name)
	}
	for name := range testOnlyExportsAllowed {
		if reads[name] > 0 {
			t.Errorf("%s is read outside tests: drop it from the allow-list", name)
		}
	}
}

// memberIdents lists the names a struct type's fields or an interface
// type's methods declare (embedded fields declare none).
func memberIdents(e ast.Expr) []*ast.Ident {
	var list *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list = x.Methods
	default:
		return nil
	}
	var out []*ast.Ident
	for _, f := range list.List {
		out = append(out, f.Names...)
	}
	return out
}
