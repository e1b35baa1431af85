package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"sprwl/internal/analysis/cfg"
)

func TestBits(t *testing.T) {
	b := NewBits(70)
	b.Set(0)
	b.Set(65)
	if !b.Has(0) || !b.Has(65) || b.Has(64) {
		t.Fatal("set/has broken")
	}
	if len(members(b)) != 2 {
		t.Fatalf("count = %d", len(members(b)))
	}
	b.Clear(65)
	if b.Has(65) {
		t.Fatal("clear broken")
	}
	top := NewBits(70)
	top.Fill(70)
	if len(members(top)) != 70 {
		t.Fatalf("fill count = %d", len(members(top)))
	}
	b.Set(3)
	got := members(b)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("foreach = %v", got)
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Fatal("clone/equal broken")
	}
	c.Or(top)
	if len(members(c)) != 70 {
		t.Fatal("or broken")
	}
	c.And(b)
	if !c.Equal(b) {
		t.Fatal("and broken")
	}
}

// members lists b's set bits in ascending order.
func members(b Bits) []int {
	var out []int
	for i := 0; i < len(b)*64; i++ {
		if b.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// buildCFG parses a body and returns its graph plus the fileset.
func buildCFG(t *testing.T, body string) *cfg.Graph {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return cfg.New(fn.Body, cfg.Options{})
}

// eventFlow builds a Flow whose universe is the given call names: calling
// genN generates event N's bit, killN kills it.
func eventFlow(g *cfg.Graph, mode Mode, names []string) *Flow {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return &Flow{
		Graph: g,
		N:     len(names),
		Mode:  mode,
		Events: func(n ast.Node, _ bool) (gen, kill []int) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return nil, nil
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return nil, nil
			}
			if i, ok := idx[strings.TrimPrefix(id.Name, "gen_")]; ok && strings.HasPrefix(id.Name, "gen_") {
				return []int{i}, nil
			}
			if i, ok := idx[strings.TrimPrefix(id.Name, "kill_")]; ok && strings.HasPrefix(id.Name, "kill_") {
				return nil, []int{i}
			}
			return nil, nil
		},
	}
}

// blockWith finds the block containing a call to name.
func blockWith(t *testing.T, g *cfg.Graph, name string) *cfg.Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			found := false
			cfg.Walk(n, false, func(m ast.Node, _ bool) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return true
			})
			if found {
				return b
			}
		}
	}
	t.Fatalf("no block calls %s", name)
	return nil
}

func TestMustForwardBranchJoin(t *testing.T) {
	g := buildCFG(t, `
	gen_a()
	if c {
		gen_b()
	}
	probe()
	`)
	f := eventFlow(g, MustForward, []string{"a", "b"})
	facts := f.Solve()
	in := facts.In[blockWith(t, g, "probe")]
	if !in.Has(0) {
		t.Fatal("a occurs on all paths: must hold at join")
	}
	if in.Has(1) {
		t.Fatal("b occurs on one branch only: must not hold at join")
	}
}

func TestMustForwardBothArms(t *testing.T) {
	g := buildCFG(t, `
	if c {
		gen_a()
	} else {
		gen_a()
	}
	probe()
	`)
	f := eventFlow(g, MustForward, []string{"a"})
	facts := f.Solve()
	if !facts.In[blockWith(t, g, "probe")].Has(0) {
		t.Fatal("a on both arms must hold at join")
	}
}

func TestMustForwardKillOnOnePath(t *testing.T) {
	g := buildCFG(t, `
	gen_a()
	if c {
		kill_a()
	}
	probe()
	`)
	f := eventFlow(g, MustForward, []string{"a"})
	facts := f.Solve()
	if facts.In[blockWith(t, g, "probe")].Has(0) {
		t.Fatal("a killed on one path: must not hold at join")
	}
}

func TestMayForwardLoopBackEdge(t *testing.T) {
	g := buildCFG(t, `
	for {
		probe()
		gen_a()
		if done() {
			break
		}
	}
	`)
	f := eventFlow(g, MayForward, []string{"a"})
	facts := f.Solve()
	if !facts.In[blockWith(t, g, "probe")].Has(0) {
		t.Fatal("a may reach probe around the back edge")
	}
}

func TestMustBackward(t *testing.T) {
	g := buildCFG(t, `
	probe()
	if c {
		gen_a()
		return
	}
	gen_a()
	gen_b()
	`)
	f := eventFlow(g, MustBackward, []string{"a", "b"})
	facts := f.Solve()
	in := facts.In[blockWith(t, g, "probe")]
	if !in.Has(0) {
		t.Fatal("a occurs on every path to exit")
	}
	if in.Has(1) {
		t.Fatal("b is skipped by the early return")
	}
}

// factBefore solves f and replays to return the fact holding immediately
// before the call to name.
func factBefore(t *testing.T, f *Flow, name string) Bits {
	t.Helper()
	facts := f.Solve()
	b := blockWith(t, f.Graph, name)
	var result Bits
	f.ReplayForward(b, facts.In[b], func(n ast.Node, _ bool, before Bits) {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name && result == nil {
				result = before.Clone()
			}
		}
	})
	if result == nil {
		t.Fatalf("call %s not replayed", name)
	}
	return result
}

func TestGuardedGenSemantics(t *testing.T) {
	// gen_a sits in a short-circuit right operand: may, not must.
	g := buildCFG(t, `
	x := c && gen_a()
	probe(x)
	`)
	if factBefore(t, eventFlow(g, MustForward, []string{"a"}), "probe").Has(0) {
		t.Fatal("guarded gen must not establish a must-fact")
	}
	if !factBefore(t, eventFlow(g, MayForward, []string{"a"}), "probe").Has(0) {
		t.Fatal("guarded gen still establishes a may-fact")
	}
}

func TestGuardedKillSemantics(t *testing.T) {
	g := buildCFG(t, `
	gen_a()
	x := c && kill_a()
	probe(x)
	`)
	if factBefore(t, eventFlow(g, MustForward, []string{"a"}), "probe").Has(0) {
		t.Fatal("a guarded kill still invalidates a must-fact")
	}
	if !factBefore(t, eventFlow(g, MayForward, []string{"a"}), "probe").Has(0) {
		t.Fatal("a guarded kill cannot remove a may-fact")
	}
}

func TestDeferredBlockIsMay(t *testing.T) {
	g := buildCFG(t, `
	defer gen_a()
	work()
	`)
	// The deferred call executes before exit but conditionally (defers
	// registered on skipped paths don't run): may at exit, not must.
	must := eventFlow(g, MustForward, []string{"a"})
	mf := must.Solve()
	if mf.In[g.Exit].Has(0) {
		t.Fatal("deferred events must not be must-facts")
	}
	may := eventFlow(g, MayForward, []string{"a"})
	if !may.Solve().In[g.Exit].Has(0) {
		t.Fatal("deferred events are may-facts at exit")
	}
}

func TestReplayForwardOrder(t *testing.T) {
	g := buildCFG(t, `
	gen_a()
	probe()
	kill_a()
	probe2()
	`)
	f := eventFlow(g, MustForward, []string{"a"})
	facts := f.Solve()
	b := blockWith(t, g, "probe")
	var atProbe, atProbe2 bool
	f.ReplayForward(b, facts.In[b], func(n ast.Node, _ bool, before Bits) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "probe":
				atProbe = before.Has(0)
			case "probe2":
				atProbe2 = before.Has(0)
			}
		}
	})
	if !atProbe {
		t.Fatal("fact must hold between gen and kill")
	}
	if atProbe2 {
		t.Fatal("fact must be dead after kill")
	}
}

func TestReplayBackward(t *testing.T) {
	g := buildCFG(t, `
	probe()
	gen_a()
	probe2()
	`)
	f := eventFlow(g, MustBackward, []string{"a"})
	facts := f.Solve()
	b := blockWith(t, g, "probe")
	var afterProbe, afterProbe2 bool
	f.ReplayBackward(b, facts.Out[b], func(n ast.Node, _ bool, after Bits) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "probe":
				afterProbe = after.Has(0)
			case "probe2":
				afterProbe2 = after.Has(0)
			}
		}
	})
	if !afterProbe {
		t.Fatal("gen_a lies ahead of probe on all paths")
	}
	if afterProbe2 {
		t.Fatal("no gen_a ahead of probe2")
	}
}

// typecheck parses src and returns the file plus populated type info.
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
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
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, file, info
}

func funcBody(file *ast.File, name string) *ast.BlockStmt {
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return fn.Body
		}
	}
	return nil
}

func TestReachDefsBranch(t *testing.T) {
	_, file, info := typecheck(t, `
package p

func src() int { return 1 }
func alt() int { return 2 }
func use(int)

func f(c bool) {
	x := src()
	if c {
		x = alt()
	}
	use(x)
}
`)
	g := cfg.New(funcBody(file, "f"), cfg.Options{Info: info})
	r := NewReachDefs(g, info)
	if len(r.Defs) != 2 {
		t.Fatalf("defs = %d, want 2", len(r.Defs))
	}
	// Find the use(x) call and the block holding it.
	var useCall *ast.CallExpr
	var useBlock *cfg.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Walk(n, false, func(m ast.Node, _ bool) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
						useCall, useBlock = call, b
					}
				}
				return true
			})
		}
	}
	if useCall == nil {
		t.Fatal("no use call")
	}
	reaching := r.At(useBlock, useCall)
	if len(members(reaching)) != 2 {
		t.Fatalf("both defs of x should reach use, got %d", len(members(reaching)))
	}
}

func TestReachDefsKill(t *testing.T) {
	_, file, info := typecheck(t, `
package p

func src() int { return 1 }
func alt() int { return 2 }
func use(int)

func f() {
	x := src()
	x = alt()
	use(x)
}
`)
	g := cfg.New(funcBody(file, "f"), cfg.Options{Info: info})
	r := NewReachDefs(g, info)
	var useCall *ast.CallExpr
	var useBlock *cfg.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Walk(n, false, func(m ast.Node, _ bool) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
						useCall, useBlock = call, b
					}
				}
				return true
			})
		}
	}
	reaching := r.At(useBlock, useCall)
	if len(members(reaching)) != 1 {
		t.Fatalf("rebind kills the first def, got %d reaching", len(members(reaching)))
	}
	which := r.Defs[members(reaching)[0]]
	if id, ok := which.RHS.(*ast.CallExpr); !ok {
		t.Fatal("reaching def should be the alt() assignment")
	} else if fn, ok := id.Fun.(*ast.Ident); !ok || fn.Name != "alt" {
		t.Fatalf("reaching def RHS = %v, want alt()", which.RHS)
	}
}

func TestReachDefsCompoundPreservesPrior(t *testing.T) {
	_, file, info := typecheck(t, `
package p

func src() int { return 1 }
func use(int)

func f() {
	x := src()
	x += 1
	use(x)
}
`)
	g := cfg.New(funcBody(file, "f"), cfg.Options{Info: info})
	r := NewReachDefs(g, info)
	var useCall *ast.CallExpr
	var useBlock *cfg.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Walk(n, false, func(m ast.Node, _ bool) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
						useCall, useBlock = call, b
					}
				}
				return true
			})
		}
	}
	reaching := r.At(useBlock, useCall)
	if len(members(reaching)) != 2 {
		t.Fatalf("compound assign preserves the prior def, got %d reaching", len(members(reaching)))
	}
}

func TestCapturedAliases(t *testing.T) {
	_, file, info := typecheck(t, `
package p

type T struct{ buf []int }

func launder(p *T) *T { return p }

func outer() func() {
	var captured T
	return func() {
		local := 0
		p := &captured
		q := p
		s := captured.buf
		lp := &local
		washed := launder(&captured)
		_, _, _, _ = q, s, lp, washed
	}
}
`)
	var lit *ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return true
	})
	if lit == nil {
		t.Fatal("no func literal")
	}
	aliases := CapturedAliases(info, lit)
	find := func(name string) *types.Var {
		for v := range aliases {
			if v.Name() == name {
				return v
			}
		}
		return nil
	}
	hasAlias := func(local, captured string) bool {
		v := find(local)
		if v == nil {
			return false
		}
		for c := range aliases[v] {
			if c.Name() == captured {
				return true
			}
		}
		return false
	}
	if !hasAlias("p", "captured") {
		t.Fatal("p = &captured must alias captured")
	}
	if !hasAlias("q", "captured") {
		t.Fatal("q = p must inherit p's aliases")
	}
	if !hasAlias("s", "captured") {
		t.Fatal("s = captured.buf shares captured's backing array")
	}
	if hasAlias("lp", "captured") {
		t.Fatal("lp = &local must not alias captured")
	}
	if hasAlias("p", "local") {
		t.Fatal("local is declared inside the literal, not captured")
	}
	// Documented limitation: call laundering is not tracked.
	if hasAlias("washed", "captured") {
		t.Fatal("call results are documented as untracked")
	}
}
