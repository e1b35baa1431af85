package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module on disk and returns a
// Program rooted at it plus its module path.
func writeModule(t *testing.T, files map[string]string) (*Program, string) {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module example.com/m\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewProgram(dir)
	if err != nil {
		t.Fatal(err)
	}
	return p, "example.com/m"
}

func TestLoadUnparsableFile(t *testing.T) {
	p, mod := writeModule(t, map[string]string{
		"a.go": "package m\n\nfunc broken( {\n",
	})
	if _, err := p.Load(mod); err == nil {
		t.Fatal("Load succeeded on a file with a syntax error")
	} else if !strings.Contains(err.Error(), "a.go") {
		t.Fatalf("error does not name the unparsable file: %v", err)
	}
}

func TestLoadMissingImport(t *testing.T) {
	p, mod := writeModule(t, map[string]string{
		"a.go": "package m\n\nimport \"example.com/m/nosuch\"\n\nvar _ = nosuch.X\n",
	})
	_, err := p.Load(mod)
	if err == nil {
		t.Fatal("Load succeeded despite an unresolvable import")
	}
	if !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("error does not name the missing import: %v", err)
	}
}

func TestLoadTypeError(t *testing.T) {
	p, mod := writeModule(t, map[string]string{
		"a.go": "package m\n\nvar x int = \"not an int\"\n",
	})
	if _, err := p.Load(mod); err == nil {
		t.Fatal("Load succeeded on an ill-typed package")
	} else if !strings.Contains(err.Error(), "typecheck") {
		t.Fatalf("type error not labelled as such: %v", err)
	}
}

// TestLoadBuildTagExcluded checks that parseDir honours build constraints:
// a file fenced off by //go:build, or by a foreign-GOOS filename suffix,
// must not be parsed — the excluded files here would fail type checking
// (duplicate declarations) if they slipped in.
func TestLoadBuildTagExcluded(t *testing.T) {
	p, mod := writeModule(t, map[string]string{
		"a.go":          "package m\n\nfunc F() int { return 1 }\n",
		"b.go":          "//go:build neverever\n\npackage m\n\nfunc F() int { return 2 }\n",
		"c_windows.go":  "package m\n\nfunc F() int { return 3 }\n",
		"d_plan9_386.s": "",
	})
	if _, ok := os.LookupEnv("GOOS"); ok && os.Getenv("GOOS") == "windows" {
		t.Skip("test encodes a non-windows build configuration")
	}
	pkg, err := p.Load(mod)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1 (constraint-excluded files must be skipped)", len(pkg.Files))
	}
	name := p.Fset.Position(pkg.Files[0].Pos()).Filename
	if filepath.Base(name) != "a.go" {
		t.Fatalf("wrong file survived: %s", name)
	}
}

func TestLoadNoGoFiles(t *testing.T) {
	p, mod := writeModule(t, map[string]string{"sub/README.txt": "nothing here\n"})
	if _, err := p.Load(mod + "/sub"); err == nil {
		t.Fatal("Load succeeded on a directory with no Go files")
	} else if !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("unexpected error: %v", err)
	}
}
