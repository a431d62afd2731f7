package libseal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneStackBuilder keeps libseal.Open the one builder of a LibSEAL
// instance, so a harness cannot measure a configuration the server does not
// run. Outside internal/core and benchmark/ (which still assembles its own),
// no non-test file calls core.New except options.go's Open, and none outside
// the root package builds a core.Config literal.
func TestOneStackBuilder(t *testing.T) {
	const corePath = "libseal/internal/core"
	fset := token.NewFileSet()
	var callers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "internal/core" || path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".") {
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
		core := "" // the file's name for the core package
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == corePath {
				core = "core"
				if imp.Name != nil {
					core = imp.Name.Name
				}
			}
		}
		if core == "" {
			return nil
		}
		isCore := func(e ast.Expr, name string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == core && sel.Sel.Name == name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isCore(n.Fun, "New") {
					callers = append(callers, path)
				}
			case *ast.CompositeLit:
				if isCore(n.Type, "Config") && filepath.Dir(path) != "." {
					t.Errorf("%s: builds a core.Config; describe the stack as libseal.Options and call libseal.Open", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(callers) != 1 || callers[0] != "options.go" {
		t.Errorf("core.New called from %v, want from options.go (libseal.Open) only", callers)
	}
}
