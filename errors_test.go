package libseal

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorTaxonomyConsolidated parses the facade package's source and
// asserts every exported error sentinel is declared in errors.go — the one
// documented block — rather than leaking out of feature files one by one.
func TestErrorTaxonomyConsolidated(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	byFile := map[string][]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if id.IsExported() && strings.HasPrefix(id.Name, "Err") {
						byFile[name] = append(byFile[name], id.Name)
					}
				}
			}
		}
	}
	for file, names := range byFile {
		if file != "errors.go" {
			t.Errorf("exported error sentinel(s) %v declared in %s; the taxonomy lives in errors.go", names, file)
		}
	}
	// The documented block must actually cover the taxonomy.
	want := []string{
		"ErrTampered", "ErrBadCounter", "ErrCheckpointStale",
		"ErrAuditOverloaded", "ErrMirrorLagging", "ErrLoggingDisabled", "ErrUnknownModule",
	}
	have := map[string]bool{}
	for _, n := range byFile["errors.go"] {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("errors.go is missing sentinel %s", n)
		}
	}
	if len(byFile["errors.go"]) != len(want) {
		t.Errorf("errors.go declares %v; update this test's inventory when extending the taxonomy", byFile["errors.go"])
	}
}

// TestErrorSentinelIdentity pins the facade sentinels to the internal ones
// they re-export and exercises the errors.Is wrapping guarantee.
func TestErrorSentinelIdentity(t *testing.T) {
	sentinels := map[string]error{
		"ErrTampered":        ErrTampered,
		"ErrBadCounter":      ErrBadCounter,
		"ErrCheckpointStale": ErrCheckpointStale,
		"ErrAuditOverloaded": ErrAuditOverloaded,
		"ErrMirrorLagging":   ErrMirrorLagging,
		"ErrLoggingDisabled": ErrLoggingDisabled,
		"ErrUnknownModule":   ErrUnknownModule,
	}
	for name, sentinel := range sentinels {
		if sentinel == nil {
			t.Fatalf("%s is nil", name)
		}
		wrapped := fmt.Errorf("layer two: %w", fmt.Errorf("layer one: %w", sentinel))
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("errors.Is fails through wrapping for %s", name)
		}
	}
	// Distinct conditions must stay distinguishable.
	if errors.Is(ErrBadCounter, ErrTampered) || errors.Is(ErrTampered, ErrBadCounter) {
		t.Error("ErrBadCounter and ErrTampered must be distinct sentinels")
	}
}

// TestErrorTaxonomyEndToEnd drives one real failure per detectable family
// through the public API and asserts the sentinel surfaces via errors.Is.
func TestErrorTaxonomyEndToEnd(t *testing.T) {
	if _, err := ModuleByName("no-such-service"); !errors.Is(err, ErrUnknownModule) {
		t.Errorf("ModuleByName error %v is not ErrUnknownModule", err)
	}
	// A set whose files are not a log at all must verify as tampered.
	dir := t.TempDir()
	for _, name := range []string{"bogus-shard0.lseal", "bogus.manifest"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a log"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Verify(dir, VerifyStreamOptions{}); !errors.Is(err, ErrTampered) {
		t.Errorf("Verify of garbage returned %v, want ErrTampered", err)
	}
}
