package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// A "./..." walk must stop at a nested module, as the go tool does: its
// packages belong to another module, and loading them under this module's
// path would report findings the module's own build never sees.
func TestLoadPatternsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write("top.go", "package fixture\n")
	write("sub/sub.go", "package sub\n")
	write("nested/go.mod", "module nested\n\ngo 1.22\n")
	// Would fail to type-check if loaded as fixture/nested.
	write("nested/main.go", "package main\n\nimport \"nested/inner\"\n\nfunc main() { inner.F() }\n")
	write("nested/inner/inner.go", "package inner\n\nfunc F() {}\n")

	modPath, modDir, err := ModuleInfo(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(modPath, modDir).LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
		if len(p.Errs) > 0 {
			t.Errorf("%s: unexpected errors %v", p.Path, p.Errs)
		}
	}
	want := []string{"fixture", "fixture/sub"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("loaded %v, want %v", got, want)
	}
}
