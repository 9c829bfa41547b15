package tanoq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docNameSpan matches a backticked Go name the docs point a reader at:
// `pkg.Name`, `pkg.Type.Member`, `Type.Member`, optionally behind a `*`
// or followed by `()`. Lower-case second parts (`workload.mode`, a
// scenario key; `network.step_ns`, a metric) are not Go names.
var docNameSpan = regexp.MustCompile("`\\*?((?:[a-z][a-z0-9]*\\.)?[A-Za-z][A-Za-z0-9]*\\.[A-Z][A-Za-z0-9_]*)(?:\\(\\))?`")

// TestDocNamesDeclared fails on a backticked `pkg.Name` or `Type.Member`
// in README.md, doc.go or a package doc.go that the tree no longer
// declares, so a rename or deletion cannot leave the docs pointing at a
// name that is gone. A span whose first part is neither one of the
// module's packages nor one of its types (`testing.B`) is not checked.
func TestDocNamesDeclared(t *testing.T) {
	decl := declaredNames(t)
	docs, err := filepath.Glob("internal/*/doc.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range append([]string{"README.md", "doc.go"}, docs...) {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(blob), "")
		for _, m := range docNameSpan.FindAllStringSubmatch(text, -1) {
			parts := strings.Split(m[1], ".")
			if _, known := decl[parts[0]]; !known {
				// Not a package: a Type.Member, checked against every
				// package that declares the type.
				parts = append([]string{""}, parts...)
				if !decl[""][parts[1]] {
					continue
				}
			}
			checked++
			if !declaredIn(decl, parts) {
				t.Errorf("%s names `%s`, which the tree does not declare", doc, m[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no doc span checked; the test is vacuous")
	}
}

// declaredIn reports whether parts — package ("" for any), then a
// top-level name, then optionally one member of it — is declared.
func declaredIn(decl map[string]map[string]bool, parts []string) bool {
	name := strings.Join(parts[1:], ".")
	if parts[0] != "" {
		return decl[parts[0]][name]
	}
	for pkg, names := range decl {
		if pkg != "" && names[name] {
			return true
		}
	}
	return false
}

// declaredNames parses every non-test Go file of the module and returns,
// per package name, its top-level names and each type's `Type.Member`
// (methods, struct fields, interface methods). Key "" holds every type
// name of every package.
func declaredNames(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decl := map[string]map[string]bool{"": {}}
	fset := token.NewFileSet()
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
		names := decl[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decl[f.Name.Name] = names
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else {
					names[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						decl[""][s.Name.Name] = true
						for _, m := range members(s.Type) {
							names[s.Name.Name+"."+m] = true
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
	return decl
}

// recvType is a method receiver's type name, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// members lists a struct type's fields (embedded ones by type name) or
// an interface type's methods.
func members(e ast.Expr) []string {
	var list *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list = x.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range list.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			if name := recvType(f.Type); name != "" {
				out = append(out, name)
			} else if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			}
		}
	}
	return out
}
