package observatory

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// interfaceMethods are method names the standard library calls through
// its own interfaces (error, fmt.Stringer, json.Marshaler, http.Handler,
// sort.Interface, heap.Interface, ...): nothing in the module names
// them, yet they run. A method satisfying an interface declared in the
// module needs no entry here, because the interface's method list names it.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestEveryDeclarationIsNamed fails on a top-level func, method, type,
// var or const in a non-test file of a library package that no
// identifier elsewhere in the module names, tests included: code that
// nothing can run. Commands (package main), bench/, examples/ and this
// root package are the module's entry points and are not checked.
//
// The check reads names, not types: a use of any identifier spelled
// like a declaration counts as a use of it. A name shared with a live
// declaration can therefore hide a dead one, but a live declaration is
// never flagged.
func TestEveryDeclarationIsNamed(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	checked := map[*ast.File]bool{}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		top := strings.SplitN(filepath.ToSlash(path), "/", 2)[0]
		entry := top == path || top == "bench" || top == "examples"
		if !entry && f.Name.Name != "main" && !strings.HasSuffix(path, "_test.go") {
			checked[f] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every top-level declaring identifier, in every file: declaring a
	// name is not naming it.
	declaring := map[*ast.Ident]bool{}
	var candidates []*ast.Ident
	for _, f := range files {
		add := func(id *ast.Ident, candidate bool) {
			declaring[id] = true
			if checked[f] && candidate && id.Name != "_" && id.Name != "init" {
				candidates = append(candidates, id)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Recv == nil || !interfaceMethods[d.Name.Name])
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, true)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, true)
						}
					}
				}
			}
		}
	}

	named := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				named[id.Name] = true
			}
			return true
		})
	}

	for _, id := range candidates {
		if !named[id.Name] {
			t.Errorf("%s: %s is named nowhere in the module: delete it", fset.Position(id.Pos()), id.Name)
		}
	}
}
