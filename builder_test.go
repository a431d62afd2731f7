package libseal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneStackBuilder keeps libseal.Open the one builder of a LibSEAL
// instance and of its audit log, so a harness cannot measure a
// configuration the server does not run. Outside internal/core,
// internal/audit and benchmark/ (which still assembles its own), no non-test
// file calls core.New except options.go's Open, none calls audit.NewSharded
// or audit.RecoverSharded, and none outside the root package builds a
// core.Config literal.
func TestOneStackBuilder(t *testing.T) {
	const corePath = "libseal/internal/core"
	// builders are the constructors reserved to the one builder, by package.
	builders := map[string][]string{
		corePath:                 {"New"},
		"libseal/internal/audit": {"NewSharded", "RecoverSharded"},
	}
	fset := token.NewFileSet()
	calls := map[string][]string{} // "core.New" -> the files calling it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path == "internal/core", path == "internal/audit", path == "benchmark",
				path != "." && strings.HasPrefix(d.Name(), "."):
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
		imported := map[string]string{} // the file's name for a package -> its path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if _, ok := builders[p]; ok {
				name := filepath.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = p
			}
		}
		if len(imported) == 0 {
			return nil
		}
		// ref names a selector on an imported builder package: "core.New".
		ref := func(e ast.Expr) (pkg, name string) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return "", ""
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return "", ""
			}
			return imported[id.Name], sel.Sel.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pkg, name := ref(n.Fun)
				if slices.Contains(builders[pkg], name) {
					call := filepath.Base(pkg) + "." + name
					calls[call] = append(calls[call], path)
				}
			case *ast.CompositeLit:
				if pkg, name := ref(n.Type); pkg == corePath && name == "Config" && filepath.Dir(path) != "." {
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
	if got := calls["core.New"]; len(got) != 1 || got[0] != "options.go" {
		t.Errorf("core.New called from %v, want from options.go (libseal.Open) only", got)
	}
	for _, call := range []string{"audit.NewSharded", "audit.RecoverSharded"} {
		if got := calls[call]; len(got) > 0 {
			t.Errorf("%s called from %v; build the log with libseal.Open", call, got)
		}
	}
}
