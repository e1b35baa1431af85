// Package callgraph builds a function-value-aware static call graph over
// the packages a lint run loads. The repository's hot paths route calls
// through stored function values — core.NewHandle caches per-handle
// closures in struct fields (h.txRead, h.txWrite) precisely so the hot
// path allocates nothing — and a call graph that only resolves direct
// calls goes blind exactly where the protocol invariants live. This one
// tracks function literals and function references through local
// variables, package variables, and struct fields (merged per field
// object, so any instance's stored values count for every instance), with
// one level of copy propagation run to fixpoint.
//
// Resolution is deliberately conservative about completeness: every
// lookup reports whether the returned callee set can be trusted to be
// exhaustive. Parameters, interface methods, map/slice elements, values
// laundered through calls, and address-taken storage are incomplete —
// callers must treat an incomplete resolution as "could be anything".
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"sprwl/internal/analysis/astq"
	"sprwl/internal/analysis/driver"
)

// Callee is one possible call target: a declared function/method or a
// function literal.
type Callee struct {
	Func *types.Func  // non-nil for declared functions
	Lit  *ast.FuncLit // non-nil for literals
	// Pkg is the loaded package whose Info covers the callee's source
	// (nil for functions declared outside the loaded set).
	Pkg *driver.Package
}

// Graph holds the stored-function-value facts for a set of packages.
type Graph struct {
	prog *driver.Program

	// values maps func-typed storage (local/package vars, struct fields)
	// to the function values observed flowing into it.
	values map[types.Object][]Callee
	// incomplete marks storage that may hold values the graph cannot see:
	// assigned from a call result, address-taken, or element of an
	// untracked container.
	incomplete map[types.Object]bool
	// tracked marks storage that received at least one binding; func-typed
	// objects never bound anywhere (parameters, externally-set vars) are
	// incomplete by construction.
	tracked map[types.Object]bool
	// edges are copy-propagation edges dst <- src.
	edges map[types.Object][]types.Object
}

// Build scans pkgs and returns their call graph. prog may be nil; it is
// only used to record the loaded package of each declared callee.
func Build(prog *driver.Program, pkgs []*driver.Package) *Graph {
	g := &Graph{
		prog:       prog,
		values:     make(map[types.Object][]Callee),
		incomplete: make(map[types.Object]bool),
		tracked:    make(map[types.Object]bool),
		edges:      make(map[types.Object][]types.Object),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			g.scanFile(pkg, f)
		}
	}
	g.propagate()
	return g
}

func (g *Graph) scanFile(pkg *driver.Package, f *ast.File) {
	info := pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					g.bind(pkg, g.storageObj(info, x.Lhs[i]), x.Rhs[i])
				}
			} else {
				// Multi-value assignment from a call: func-typed targets
				// receive values the graph cannot see.
				for _, lhs := range x.Lhs {
					if obj := g.storageObj(info, lhs); obj != nil {
						g.incomplete[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, name := range x.Names {
					g.bind(pkg, g.storageObj(info, name), x.Values[i])
				}
			} else if len(x.Values) > 0 {
				for _, name := range x.Names {
					if obj := g.storageObj(info, name); obj != nil {
						g.incomplete[obj] = true
					}
				}
			}
		case *ast.CompositeLit:
			g.scanCompositeLit(pkg, x)
		case *ast.UnaryExpr:
			// &f lets anyone holding the pointer rebind the storage.
			if x.Op == token.AND {
				if obj := g.storageObj(info, x.X); obj != nil {
					g.incomplete[obj] = true
				}
			}
		}
		return true
	})
}

// scanCompositeLit records struct-literal field initializations
// (Handle{txRead: fn} and positional forms).
func (g *Graph) scanCompositeLit(pkg *driver.Package, cl *ast.CompositeLit) {
	info := pkg.Info
	t := astq.TypeOf(info, cl)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if field, ok := info.Uses[id].(*types.Var); ok {
					g.bind(pkg, g.funcTyped(field), kv.Value)
				}
			}
			continue
		}
		if i < st.NumFields() {
			g.bind(pkg, g.funcTyped(st.Field(i)), elt)
		}
	}
}

// storageObj resolves an lvalue to trackable func-typed storage: a
// variable or a struct field. Index expressions and dereferences are not
// trackable.
func (g *Graph) storageObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Defs[x].(*types.Var); ok {
			return g.funcTyped(v)
		}
		if v, ok := info.Uses[x].(*types.Var); ok {
			return g.funcTyped(v)
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			return g.funcTyped(sel.Obj().(*types.Var))
		}
		// Qualified package-level var (pkg.Var).
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && astq.IsPackageLevel(v) {
			return g.funcTyped(v)
		}
	}
	return nil
}

// funcTyped filters storage to function-typed objects; everything else is
// not this graph's concern.
func (g *Graph) funcTyped(v *types.Var) types.Object {
	if v == nil {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return nil
	}
	return v
}

// bind records rhs flowing into obj.
func (g *Graph) bind(pkg *driver.Package, obj types.Object, rhs ast.Expr) {
	if obj == nil {
		return
	}
	info := pkg.Info
	switch x := ast.Unparen(rhs).(type) {
	case *ast.FuncLit:
		g.addValue(obj, Callee{Lit: x, Pkg: pkg})
	case *ast.Ident:
		g.bindRef(pkg, obj, x, info.Uses[x])
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil {
			switch sel.Kind() {
			case types.FieldVal:
				g.addEdge(obj, sel.Obj())
			case types.MethodVal:
				if !types.IsInterface(sel.Recv()) {
					g.addValue(obj, g.funcCallee(sel.Obj().(*types.Func)))
				} else {
					g.incomplete[obj] = true
					g.tracked[obj] = true
				}
			default:
				g.incomplete[obj] = true
				g.tracked[obj] = true
			}
			return
		}
		g.bindRef(pkg, obj, x.Sel, info.Uses[x.Sel])
	case *ast.CallExpr:
		// A conversion like rwlock.Body(fn) carries the value through.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			g.bind(pkg, obj, x.Args[0])
			return
		}
		g.incomplete[obj] = true
		g.tracked[obj] = true
	default:
		// nil literal contributes nothing; anything else is untracked.
		if tv, ok := info.Types[rhs]; ok && tv.IsNil() {
			g.tracked[obj] = true
			return
		}
		g.incomplete[obj] = true
		g.tracked[obj] = true
	}
}

func (g *Graph) bindRef(pkg *driver.Package, obj types.Object, id *ast.Ident, target types.Object) {
	switch t := target.(type) {
	case *types.Func:
		g.addValue(obj, g.funcCallee(t))
	case *types.Var:
		g.addEdge(obj, t)
	default:
		g.incomplete[obj] = true
		g.tracked[obj] = true
	}
}

func (g *Graph) funcCallee(fn *types.Func) Callee {
	c := Callee{Func: fn}
	if g.prog != nil {
		if src, ok := g.prog.FuncSource(fn); ok {
			c.Pkg = src.Pkg
		}
	}
	return c
}

func (g *Graph) addValue(obj types.Object, c Callee) {
	g.tracked[obj] = true
	for _, have := range g.values[obj] {
		if have.Func == c.Func && have.Lit == c.Lit {
			return
		}
	}
	g.values[obj] = append(g.values[obj], c)
}

func (g *Graph) addEdge(dst, src types.Object) {
	g.tracked[dst] = true
	g.edges[dst] = append(g.edges[dst], src)
}

// propagate runs copy edges to fixpoint, flowing both values and
// incompleteness.
func (g *Graph) propagate() {
	for changed := true; changed; {
		changed = false
		for dst, srcs := range g.edges {
			for _, src := range srcs {
				for _, c := range g.values[src] {
					before := len(g.values[dst])
					g.addValue(dst, c)
					if len(g.values[dst]) != before {
						changed = true
					}
				}
				// A source the graph cannot fully see (incl. never-bound
				// parameters) poisons the destination.
				if (g.incomplete[src] || !g.tracked[src]) && !g.incomplete[dst] {
					g.incomplete[dst] = true
					changed = true
				}
			}
		}
	}
}

// ValuesOf resolves the function values expression e may hold. The second
// result reports completeness: false means the set may be missing
// callees and must be treated as "could be anything".
func (g *Graph) ValuesOf(info *types.Info, e ast.Expr) ([]Callee, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return []Callee{{Lit: x}}, true
	case *ast.Ident:
		return g.valuesOfObj(info.Uses[x])
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil {
			switch sel.Kind() {
			case types.FieldVal:
				return g.valuesOfObj(sel.Obj())
			case types.MethodVal:
				if !types.IsInterface(sel.Recv()) {
					return []Callee{g.funcCallee(sel.Obj().(*types.Func))}, true
				}
				return nil, false
			}
			return nil, false
		}
		return g.valuesOfObj(info.Uses[x.Sel])
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return g.ValuesOf(info, x.Args[0])
		}
	}
	return nil, false
}

func (g *Graph) valuesOfObj(obj types.Object) ([]Callee, bool) {
	switch t := obj.(type) {
	case *types.Func:
		return []Callee{g.funcCallee(t)}, true
	case *types.Var:
		if g.funcTyped(t) == nil {
			return nil, false
		}
		if !g.tracked[t] || g.incomplete[t] {
			return g.values[t], false
		}
		return g.values[t], true
	}
	return nil, false
}

// ResolveCall returns the possible callees of call. Builtins resolve to an
// empty, complete set. A direct call to a declared function or concrete
// method resolves completely; calls through stored function values resolve
// through the graph.
func (g *Graph) ResolveCall(info *types.Info, call *ast.CallExpr) ([]Callee, bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return nil, true
		}
		if _, isType := info.Uses[id].(*types.TypeName); isType {
			return nil, true // conversion, not a call
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil, true // conversion
	}
	if fn := astq.CalleeFunc(info, call); fn != nil {
		return []Callee{g.funcCallee(fn)}, true
	}
	return g.ValuesOf(info, call.Fun)
}
