package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
)

// storeLog records the address of every uninstrumented store, in order.
type storeLog struct {
	env.Env
	stores []memmodel.Addr
}

func (s *storeLog) Store(a memmodel.Addr, v uint64) {
	s.stores = append(s.stores, a)
	s.Env.Store(a, v)
}

// TestWriterStoresClockBeforeAdvertising: with ReaderSync a writer
// publishes its predicted end time before it advertises itself in the
// state array (Alg. 2). A reader that finds the writer advertised reads
// that clock word next to pick whom to wait for; stored the other way
// round, the reader can see the state and a stale clock.
func TestWriterStoresClockBeforeAdvertising(t *testing.T) {
	space := htm.MustNewSpace(htm.Config{Threads: 2, Words: 1 << 14})
	rec := &storeLog{Env: htm.NewRuntime(space, nil)}
	l := MustNew(rec, memmodel.NewArena(0, space.Size()), 2, 4, RSyncOptions(), nil)
	l.NewHandle(0).Write(0, func(memmodel.Accessor) {})

	first := func(a memmodel.Addr) int {
		for i, s := range rec.stores {
			if s == a {
				return i
			}
		}
		return -1
	}
	clock, state := first(l.clockWAddr(0)), first(l.stateAddr(0))
	if clock < 0 || state < 0 {
		t.Fatalf("Write stored clockW at %d and state at %d (-1: never) in %v", clock, state, rec.stores)
	}
	if clock > state {
		t.Errorf("Write advertised in the state array (store %d) before publishing clockW (store %d)", state, clock)
	}
}

// TestNoAtomicFunctionCalls: core keeps its Go-side atomics in typed
// values (atomic.Uint64 and friends). A package-level sync/atomic call
// such as atomic.AddUint64(&v, 1) mixes plain and atomic access to one
// variable as soon as another site touches v directly, and the model
// extractor cannot lower it.
func TestNoAtomicFunctionCalls(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgName := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync/atomic" {
				pkgName = "atomic"
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
		if pkgName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkgName {
					t.Errorf("%s: call to sync/atomic.%s; use a typed atomic", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
