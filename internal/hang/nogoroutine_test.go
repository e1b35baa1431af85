package hang

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// lockPackages are the packages, relative to this one, that the guarded
// suites (rwlocktest, stress and the per-package tests) construct.
var lockPackages = []string{
	"../..", // the sprwl facade
	"../alloc", "../core", "../ema", "../env", "../hashmap", "../htm",
	"../locks", "../locktable", "../memmodel", "../obs", "../park",
	"../readers", "../rwle", "../rwlock", "../skiplist", "../snzi",
	"../stats", "../tle", "../tpcc", "../tsc",
}

// TestLockPackagesStartNoGoroutines guards the precondition that lets the
// suites go without a goroutine or fd leak check. No lock package starts
// a goroutine or touches the OS, so every goroutine a test has running is
// one of its own workers, and the test joins those with wg.Wait inside a
// Guard: a worker stranded by a lost wake fails the guard. A go statement
// or an os, net or syscall import in one of these packages fails here,
// since the guard would no longer see every goroutine or file a lock
// leaves behind.
func TestLockPackagesStartNoGoroutines(t *testing.T) {
	for _, dir := range lockPackages {
		name := filepath.Base(dir)
		if dir == "../.." {
			name = "sprwl"
		}
		t.Run(name, func(t *testing.T) {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			files := 0
			for _, ent := range entries {
				fn := ent.Name()
				if !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files++
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					root, _, _ := strings.Cut(path, "/")
					if root == "os" || root == "net" || root == "syscall" {
						t.Errorf("%s: imports %q; a leak check must come back before a lock package touches the OS",
							fset.Position(imp.Pos()), path)
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s: go statement; a leak check must come back before a lock package starts goroutines",
							fset.Position(g.Pos()))
					}
					return true
				})
			}
			if files == 0 {
				t.Fatalf("no Go files in %s; update lockPackages", dir)
			}
		})
	}
}
