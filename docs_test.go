package observatory

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteWhatExists fails on a name the docs cite that no declaration
// in the module, test files included, answers: a test, fuzz target or
// benchmark, a pkg.Ident (a module package's exported declaration or
// method) or a Type.Member (an exported type's method or field), and a
// code span that opens with a call, `Name(`, must name a function or method.
func TestDocsCiteWhatExists(t *testing.T) {
	word := regexp.MustCompile(`[A-Za-z_]\w*(\.[A-Za-z_]\w*)*[*…]?`) // a last part before * or … is a prefix
	testName := regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z0-9_]`)
	call := regexp.MustCompile("`([A-Z]\\w*)\\(")
	known := map[string]bool{} // each package and type, "pkg.Ident", "Type.Member" and ".Func"
	add := func(q string, ids ...*ast.Ident) {
		for _, id := range ids {
			known[q], known[q+"."+id.Name] = true, true
		}
	}
	for _, glob := range []string{"*.go", "*/*.go", "*/*/*.go"} {
		files, _ := filepath.Glob(glob)
		for _, p := range files {
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkg, typ := strings.TrimSuffix(f.Name.Name, "_test"), ""
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					add(pkg, n.Name)
					add("", n.Name)
					if n.Recv != nil { // the receiver's type and its type parameters
						ast.Inspect(n.Recv.List[0].Type, func(id ast.Node) bool {
							if id, ok := id.(*ast.Ident); ok {
								add(id.Name, n.Name)
							}
							return true
						})
					}
					return false
				case *ast.TypeSpec:
					add(pkg, n.Name)
					typ = n.Name.Name
				case *ast.Field: // of the type declared last
					add(typ, n.Names...)
				case *ast.ValueSpec:
					add(pkg, n.Names...)
				}
				return true
			})
		}
	}
	for _, doc := range []string{"DESIGN.md", "API.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, at := range call.FindAllStringSubmatchIndex(text, -1) {
			if name := text[at[2]:at[3]]; !known["."+name] {
				t.Errorf("%s:%d: %s( is not a declared function or method", doc, strings.Count(text[:at[0]], "\n")+1, name)
			}
		}
		for _, at := range word.FindAllStringIndex(text, -1) {
			parts := strings.Split(text[at[0]:at[1]], ".")
			if len(parts) == 1 && testName.MatchString(parts[0]) {
				parts = []string{"", parts[0]}
			}
			for i, q := range parts[:len(parts)-1] {
				if name := parts[i+1]; known[q] && (token.IsExported(q) || token.IsExported(name)) && !known[q+"."+name] && !strings.ContainsAny(name, "*…") {
					t.Errorf("%s:%d: %s is not declared", doc, strings.Count(text[:at[0]], "\n")+1, strings.TrimPrefix(q+"."+name, "."))
				}
			}
		}
	}
}
