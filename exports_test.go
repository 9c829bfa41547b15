package tanoq

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed are the exported names no non-test code reads
// that stay exported anyway, each with the reader that needs it. A key is
// "pkg.Name" or "pkg.Type.Name".
var testOnlyExportsAllowed = map[string]string{
	"network.Network.Aborted":    "runner.RunCellsCtx's deadline contract promises it to host-level loops in workload hooks",
	"scenario.ParseError.Unwrap": "errors.Is and errors.As call it through an interface no package names",
	"store.Journal.Done":         "no reader yet: it goes with the journal, which only tests and benchmark/ still open",
}

// TestNoTestOnlyExports fails on an exported name that only tests read:
// a function, method, type, constant, variable, struct field or
// interface method declared in non-test Go that no other non-test Go
// refers to (cmd/, benchmark/ and examples/ count as readers). Reads are
// resolved to the object they name by type-checking every non-test
// package once, so scenario.Load is not read by a call to store.Load. A
// method is also read when its type implements an interface whose method
// of that name non-test code calls, or one the standard library calls
// through (error, fmt.Stringer, json.Marshaler). Such a name is deleted,
// un-exported, or allowed above with the reader that needs it.
func TestNoTestOnlyExports(t *testing.T) {
	m := moduleTypes(t)
	read := map[types.Object]bool{}
	ifaceReads := stdCalled(t, m.std)
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			read[obj] = true
			if f, ok := obj.(*types.Func); ok && methodRecv(f) != nil && types.IsInterface(methodRecv(f)) {
				ifaceReads = append(ifaceReads, f)
			}
		}
	}
	implementsRead := func(fn *types.Func) bool {
		recv := methodRecv(fn)
		if recv == nil || types.IsInterface(recv) {
			return false
		}
		for _, f := range ifaceReads {
			if f.Name() != fn.Name() {
				continue
			}
			iface := methodRecv(f).Underlying().(*types.Interface)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}
	var unread []string
	allowed, declared := map[string]bool{}, 0
	for _, p := range m.pkgs {
		if p.types.Name() == "main" {
			continue // nothing imports a command
		}
		for obj, name := range exportedDecls(p.types) {
			declared++
			switch {
			case read[obj]:
			case implementsRead(asFunc(obj)):
			case testOnlyExportsAllowed[name] != "":
				allowed[name] = true
			default:
				unread = append(unread, name)
			}
		}
	}
	if declared == 0 {
		t.Fatal("no exported declaration found; the scan is vacuous")
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s is exported, but only tests read it", name)
	}
	for name := range testOnlyExportsAllowed {
		if !allowed[name] {
			t.Errorf("%s is read outside tests, or no longer declared: drop it from the allow-list", name)
		}
	}
}

// exportedDecls names each exported package-level object of pkg, and
// each exported method, struct field and interface method of its
// package-level types, as "pkg.Name" or "pkg.Type.Name".
func exportedDecls(pkg *types.Package) map[types.Object]string {
	out := map[types.Object]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out[obj] = pkg.Name() + "." + name
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		member := func(m types.Object) {
			if m.Exported() && m.Pkg() == pkg {
				out[m] = pkg.Name() + "." + name + "." + m.Name()
			}
		}
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				member(named.Method(i))
			}
		}
		switch u := tn.Type().Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); !f.Embedded() {
					member(f)
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				member(u.ExplicitMethod(i))
			}
		}
	}
	return out
}

// stdCalled lists the methods of the interfaces the standard library
// calls through: a method implementing one is read once its value
// reaches fmt, errors or encoding/json.
func stdCalled(t *testing.T, std types.Importer) []*types.Func {
	ifaces := []types.Type{types.Universe.Lookup("error").Type()}
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler"} {
		dot := strings.LastIndex(name, ".")
		p, err := std.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(name[dot+1:]).Type())
	}
	var out []*types.Func
	for _, iface := range ifaces {
		u := iface.Underlying().(*types.Interface)
		for i := 0; i < u.NumMethods(); i++ {
			out = append(out, u.Method(i))
		}
	}
	return out
}

func asFunc(obj types.Object) *types.Func {
	f, _ := obj.(*types.Func)
	return f
}

// methodRecv is a method's receiver type, or nil for a function or a
// non-function.
func methodRecv(f *types.Func) types.Type {
	if f == nil {
		return nil
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return recv.Type()
	}
	return nil
}

// origin maps a method or field of an instantiated generic type back to
// the declared one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// typedPkg is one type-checked non-test package.
type typedPkg struct {
	types *types.Package
	info  *types.Info
}

// typedModule type-checks the module's non-test Go package by package,
// each once: an import of the module resolves to the package checked
// here, one of the standard library to its export data.
type typedModule struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*typedPkg
}

// moduleTypes type-checks every package of the module.
func moduleTypes(t *testing.T) *typedModule {
	m := &typedModule{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		dirs: map[string]string{},
		pkgs: map[string]*typedPkg{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		m.dirs[path.Join("tanoq", filepath.ToSlash(p))] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for imp := range m.dirs {
		if _, err := m.Import(imp); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import type-checks the module package at path imp, once, or hands a
// standard-library path to the export-data importer. A directory without
// non-test Go yields no package.
func (m *typedModule) Import(imp string) (*types.Package, error) {
	dir, ok := m.dirs[imp]
	if !ok {
		return m.std.Import(imp)
	}
	if p := m.pkgs[imp]; p != nil {
		return p.types, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	tp, err := (&types.Config{Importer: m}).Check(imp, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[imp] = &typedPkg{types: tp, info: info}
	return tp, nil
}
