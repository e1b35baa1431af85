package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"sprwl/internal/analysis/driver"
)

// load typechecks src in-memory and wraps it as a driver.Package.
func load(t *testing.T, src string) *driver.Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &driver.Package{
		Path:  "p",
		Name:  "p",
		Files: []*ast.File{file},
		Types: tpkg,
		Info:  info,
	}
}

// callNamed finds the n-th call whose rendered callee position matches: we
// identify calls by an adjacent marker comment-free approach — the callee
// expression's leftmost identifier name.
func calls(pkg *driver.Package) []*ast.CallExpr {
	var out []*ast.CallExpr
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				out = append(out, c)
			}
			return true
		})
	}
	return out
}

// callTo returns the first call whose Fun's leftmost ident is name.
func callTo(t *testing.T, pkg *driver.Package, name string) *ast.CallExpr {
	t.Helper()
	for _, c := range calls(pkg) {
		switch fun := c.Fun.(type) {
		case *ast.Ident:
			if fun.Name == name {
				return c
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == name {
				return c
			}
		}
	}
	t.Fatalf("no call to %s", name)
	return nil
}

func litCount(cs []Callee) int {
	n := 0
	for _, c := range cs {
		if c.Lit != nil {
			n++
		}
	}
	return n
}

func TestDirectCall(t *testing.T) {
	pkg := load(t, `
package p
func target() {}
func f() { target() }
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "target"))
	if !complete || len(cs) != 1 || cs[0].Func == nil || cs[0].Func.Name() != "target" {
		t.Fatalf("direct call: %v complete=%v", cs, complete)
	}
}

func TestLocalFuncValue(t *testing.T) {
	pkg := load(t, `
package p
func f(c bool) {
	fn := func() {}
	if c {
		fn = func() {}
	}
	fn()
}
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "fn"))
	if !complete {
		t.Fatalf("local literal-only var must be complete")
	}
	if litCount(cs) != 2 {
		t.Fatalf("want both conditional literals, got %d", litCount(cs))
	}
}

func TestCopyPropagation(t *testing.T) {
	pkg := load(t, `
package p
func declared() {}
func f() {
	a := declared
	b := a
	b()
}
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "b"))
	if !complete || len(cs) != 1 || cs[0].Func == nil || cs[0].Func.Name() != "declared" {
		t.Fatalf("copy propagation: %v complete=%v", cs, complete)
	}
}

func TestStructFieldAcrossFunctions(t *testing.T) {
	// The core.NewHandle pattern: a closure stored into a field in one
	// function, invoked through the field elsewhere.
	pkg := load(t, `
package p
type handle struct {
	txRead func(int)
}
func newHandle() *handle {
	h := &handle{}
	h.txRead = func(x int) { _ = x }
	return h
}
func use(h *handle) { h.txRead(1) }
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "txRead"))
	if !complete || litCount(cs) != 1 {
		t.Fatalf("field-stored closure: %v complete=%v", cs, complete)
	}
}

func TestCompositeLitFieldInit(t *testing.T) {
	pkg := load(t, `
package p
type ops struct {
	run  func()
	stop func()
}
func mk() ops {
	return ops{run: func() {}, stop: func() {}}
}
func use(o ops) { o.run() }
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "run"))
	if !complete || litCount(cs) != 1 {
		t.Fatalf("composite-lit field: %v complete=%v", cs, complete)
	}
}

func TestParamIsIncomplete(t *testing.T) {
	pkg := load(t, `
package p
func f(cb func()) { cb() }
`)
	g := Build(nil, []*driver.Package{pkg})
	_, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "cb"))
	if complete {
		t.Fatal("parameter calls must be incomplete")
	}
}

func TestCallResultIsIncomplete(t *testing.T) {
	pkg := load(t, `
package p
func pick() func() { return func() {} }
func f() {
	fn := pick()
	fn()
}
`)
	g := Build(nil, []*driver.Package{pkg})
	_, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "fn"))
	if complete {
		t.Fatal("values laundered through calls must be incomplete")
	}
}

func TestAddressTakenIsIncomplete(t *testing.T) {
	pkg := load(t, `
package p
func rebind(p *func()) {}
func f() {
	fn := func() {}
	rebind(&fn)
	fn()
}
`)
	g := Build(nil, []*driver.Package{pkg})
	_, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "fn"))
	if complete {
		t.Fatal("address-taken storage must be incomplete")
	}
}

func TestConversionCarriesValue(t *testing.T) {
	pkg := load(t, `
package p
type Body func()
func f() {
	var b Body = Body(func() {})
	b()
}
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "b"))
	if !complete || litCount(cs) != 1 {
		t.Fatalf("conversion: %v complete=%v", cs, complete)
	}
}

func TestValuesOfArgument(t *testing.T) {
	// Resolve the function value passed as an argument, the shape of
	// core's transaction entry (env.Attempt(slot, opts, h.txRead)).
	pkg := load(t, `
package p
type handle struct {
	txRead func(int)
}
func attempt(slot int, body func(int)) {}
func setup(h *handle) {
	h.txRead = func(x int) { _ = x }
	attempt(0, h.txRead)
}
`)
	g := Build(nil, []*driver.Package{pkg})
	call := callTo(t, pkg, "attempt")
	cs, complete := g.ValuesOf(pkg.Info, call.Args[1])
	if !complete || litCount(cs) != 1 {
		t.Fatalf("argument values: %v complete=%v", cs, complete)
	}
}

func TestInterfaceMethodIncomplete(t *testing.T) {
	pkg := load(t, `
package p
type iface interface{ M() }
func f(i iface) { i.M() }
`)
	g := Build(nil, []*driver.Package{pkg})
	_, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "M"))
	if complete {
		t.Fatal("interface dispatch must be incomplete")
	}
}

func TestConcreteMethodComplete(t *testing.T) {
	pkg := load(t, `
package p
type T struct{}
func (T) M() {}
func f(v T) { v.M() }
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "M"))
	if !complete || len(cs) != 1 || cs[0].Func == nil || cs[0].Func.Name() != "M" {
		t.Fatalf("concrete method: %v complete=%v", cs, complete)
	}
}

func TestBuiltinAndConversionResolveEmptyComplete(t *testing.T) {
	pkg := load(t, `
package p
func f(xs []int) {
	_ = len(xs)
	_ = int64(len(xs))
}
`)
	g := Build(nil, []*driver.Package{pkg})
	for _, c := range calls(pkg) {
		cs, complete := g.ResolveCall(pkg.Info, c)
		if !complete || len(cs) != 0 {
			t.Fatalf("builtin/conversion should be empty+complete: %v %v", cs, complete)
		}
	}
}

func TestNilAssignmentStaysComplete(t *testing.T) {
	pkg := load(t, `
package p
func f(c bool) {
	var fn func()
	if c {
		fn = func() {}
	}
	if fn != nil {
		fn()
	}
}
`)
	g := Build(nil, []*driver.Package{pkg})
	cs, complete := g.ResolveCall(pkg.Info, callTo(t, pkg, "fn"))
	if !complete || litCount(cs) != 1 {
		t.Fatalf("nil zero value + one literal: %v complete=%v", cs, complete)
	}
}
