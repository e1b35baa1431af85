// Package bodyidempotent checks the rwlock.Body contract: a critical-section
// closure may be executed multiple times (the HTM emulation re-runs it after
// an abort), so everything it does must be idempotent. All shared-state
// effects must flow through the Accessor parameter — those are buffered in
// the transaction write set and undone on abort — while effects on captured
// Go-side memory or on the outside world escape the transaction and are
// replayed on every retry.
//
// Reported patterns:
//
//   - read-modify-write of a captured variable (x++, x += v, or a plain
//     write to a variable that is also read inside the body): each retry
//     compounds the update;
//   - writes through captured pointers, captured struct fields, and into
//     captured maps — whether named directly or through a local alias of
//     the captured storage (p := out; p.n = v), which the may-alias
//     lattice resolves: visible before commit and replayed on retry
//     (writing a result into a captured scalar or a captured slice element
//     is the sanctioned extraction idiom — same slot, same value on every
//     run — and is not reported);
//   - calls to methods on captured receivers or to captured func values
//     that do not take the accessor (rng.Uint64N, a captured now()): these
//     advance hidden state or observe the outside world, so each retry sees
//     a different value and the committed execution may disagree with the
//     decisions made by aborted ones. One report is issued per captured
//     object per body — every further call on the same object is the same
//     decision about the same state, so the first site stands for all of
//     them (and one suppression covers the object, not each call);
//   - calls into fmt, os, log, io, time, math/rand, net and sync, plus
//     print/println, go statements, channel sends and close: side effects
//     the abort path cannot undo.
//
// Compute non-idempotent inputs before the critical section and pass them in
// by value; a body that genuinely needs an exception carries
// //sprwl:allow(bodyidempotent) with a justification.
package bodyidempotent

import (
	"go/ast"
	"go/token"
	"go/types"

	"sprwl/internal/analysis/astq"
	"sprwl/internal/analysis/driver"
)

// Analyzer is the bodyidempotent check.
var Analyzer = &driver.Analyzer{
	Name: "bodyidempotent",
	Doc:  "rwlock.Body closures must be idempotent: no captured-state mutation or non-Accessor side effects",
	Run:  run,
}

// sideEffectPkgs are packages whose calls are outside-world effects or
// non-deterministic inputs — either way, not idempotent under re-execution.
var sideEffectPkgs = map[string]bool{
	"fmt":          true,
	"os":           true,
	"log":          true,
	"io":           true,
	"time":         true,
	"math/rand":    true,
	"math/rand/v2": true,
	"net":          true,
	"sync":         true,
}

func isBodyType(t types.Type) bool {
	return astq.IsNamed(t, "internal/rwlock", "Body")
}

func run(pass *driver.Pass) error {
	info := pass.Pkg.Info
	checked := make(map[*ast.FuncLit]bool)
	check := func(lit *ast.FuncLit) {
		if lit != nil && !checked[lit] {
			checked[lit] = true
			checkBody(pass, lit)
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				tv, ok := info.Types[n.Fun]
				if ok && tv.IsType() {
					// Conversion rwlock.Body(func(...){...}).
					if isBodyType(tv.Type) && len(n.Args) == 1 {
						check(astq.FuncLit(n.Args[0]))
					}
					return true
				}
				sig, ok := tv.Type.(*types.Signature)
				if !ok {
					if tv.Type != nil {
						sig, _ = tv.Type.Underlying().(*types.Signature)
					}
				}
				if sig == nil {
					return true
				}
				for i, arg := range n.Args {
					if lit := astq.FuncLit(arg); lit != nil && isBodyType(astq.ParamType(sig, i, n.Ellipsis != token.NoPos)) {
						check(lit)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) {
						if lit := astq.FuncLit(rhs); lit != nil && isBodyType(astq.TypeOf(info, n.Lhs[i])) {
							check(lit)
						}
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					if lit := astq.FuncLit(v); lit != nil {
						if n.Type != nil && isBodyType(astq.TypeOf(info, n.Type)) {
							check(lit)
						}
					}
				}
			case *ast.ReturnStmt:
				// A factory returning a Body: resolve via the literal's own
				// assigned type when the checker converted it.
				for _, r := range n.Results {
					if lit := astq.FuncLit(r); lit != nil && isBodyType(astq.TypeOf(info, r)) {
						check(lit)
					}
				}
			}
			return true
		})
	}
	return nil
}

// bodyCheck carries the per-literal state: the accessor object, the
// may-alias lattice from local variables to the captured storage they can
// reach, and the receivers already reported (one diagnostic per captured
// object per body).
type bodyCheck struct {
	pass    *driver.Pass
	info    *types.Info
	lit     *ast.FuncLit
	accObj  types.Object
	aliases map[*types.Var]map[*types.Var]bool

	writeSites   map[*types.Var]token.Pos
	readVars     map[*types.Var]bool
	writeLHS     map[*ast.Ident]bool
	reportedRecv map[*types.Var]bool
}

// checkBody inspects one rwlock.Body literal for non-idempotent effects.
func checkBody(pass *driver.Pass, lit *ast.FuncLit) {
	c := &bodyCheck{
		pass:         pass,
		info:         pass.Pkg.Info,
		lit:          lit,
		aliases:      capturedAliases(pass.Pkg.Info, lit),
		writeSites:   make(map[*types.Var]token.Pos),
		readVars:     make(map[*types.Var]bool),
		writeLHS:     make(map[*ast.Ident]bool),
		reportedRecv: make(map[*types.Var]bool),
	}
	if p := lit.Type.Params; p != nil && len(p.List) > 0 && len(p.List[0].Names) > 0 {
		c.accObj = c.info.Defs[p.List[0].Names[0]]
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			compound := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs, compound, n.Tok)
			}
		case *ast.IncDecStmt:
			if v, _ := c.capturedRoot(n.X); v != nil {
				c.pass.Reportf(n.Pos(), "body is not idempotent: %s of captured %q compounds on every re-execution; compute it outside the critical section", n.Tok, v.Name())
			}
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "body is not idempotent: go statement launches a goroutine on every re-execution")
		case *ast.SendStmt:
			c.pass.Reportf(n.Pos(), "body is not idempotent: channel send escapes the transaction and is replayed on abort")
		case *ast.Ident:
			if c.writeLHS[n] {
				return true
			}
			if v, ok := c.info.Uses[n].(*types.Var); ok && astq.CapturedBy(v, c.lit) {
				c.readVars[v] = true
			}
		}
		return true
	})

	for v, pos := range c.writeSites {
		if c.readVars[v] {
			c.pass.Reportf(pos, "body is not idempotent: captured %q is both read and written in the body, so re-execution compounds the update; use the Accessor for shared state or hoist the computation", v.Name())
		}
	}
}

// capturedRoot resolves the captured storage an access path can reach: the
// root variable itself when it is captured, or — through the alias lattice
// — a captured variable a local root may alias (p := out; p.n = v). The
// second result names the aliasing local, nil for direct captures.
func (c *bodyCheck) capturedRoot(e ast.Expr) (captured, via *types.Var) {
	root := astq.RootVar(c.info, e)
	if root == nil {
		return nil, nil
	}
	if astq.CapturedBy(root, c.lit) {
		return root, nil
	}
	for cand := range c.aliases[root] {
		if captured == nil || cand.Name() < captured.Name() {
			captured = cand
		}
	}
	if captured != nil {
		return captured, root
	}
	return nil, nil
}

// checkWrite classifies one assignment target inside a body.
func (c *bodyCheck) checkWrite(lhs ast.Expr, compound bool, tok token.Token) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, ok := c.info.Uses[e].(*types.Var)
		if !ok || !astq.CapturedBy(v, c.lit) {
			return
		}
		c.writeLHS[e] = true
		if compound {
			c.pass.Reportf(lhs.Pos(), "body is not idempotent: %s on captured %q compounds on every re-execution; use the Accessor for shared state or hoist the computation", tok, v.Name())
			return
		}
		if _, ok := c.writeSites[v]; !ok {
			c.writeSites[v] = lhs.Pos()
		}
	case *ast.SelectorExpr:
		if v, via := c.capturedRoot(e); v != nil {
			if via != nil {
				c.pass.Reportf(lhs.Pos(), "body is not idempotent: write through %q, which aliases captured %q, escapes the transaction and is replayed on abort; route it through the Accessor or extract after the section", via.Name(), v.Name())
				return
			}
			c.pass.Reportf(lhs.Pos(), "body is not idempotent: write through captured %q escapes the transaction and is replayed on abort; route it through the Accessor or extract after the section", v.Name())
		}
	case *ast.StarExpr:
		if v, via := c.capturedRoot(e.X); v != nil {
			if via != nil {
				c.pass.Reportf(lhs.Pos(), "body is not idempotent: write through %q, which aliases captured pointer %q, escapes the transaction and is replayed on abort", via.Name(), v.Name())
				return
			}
			c.pass.Reportf(lhs.Pos(), "body is not idempotent: write through captured pointer %q escapes the transaction and is replayed on abort", v.Name())
		}
	case *ast.IndexExpr:
		// Captured-map inserts allocate buckets and are visible before
		// commit; captured-slice element writes are the extraction idiom
		// (same slot, same value every run) and pass.
		if t := astq.TypeOf(c.info, e.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if v, via := c.capturedRoot(e.X); v != nil {
					if via != nil {
						c.pass.Reportf(lhs.Pos(), "body is not idempotent: write into %q, which aliases captured map %q, escapes the transaction and is replayed on abort", via.Name(), v.Name())
						return
					}
					c.pass.Reportf(lhs.Pos(), "body is not idempotent: write into captured map %q escapes the transaction and is replayed on abort", v.Name())
				}
			}
		}
	}
}

// checkCall flags calls whose effects escape the transaction: denylisted
// packages, builtins with side effects, and calls on captured state that do
// not go through the accessor.
func (c *bodyCheck) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "print", "println":
				c.pass.Reportf(call.Pos(), "body is not idempotent: %s output is replayed on every re-execution", b.Name())
			case "close":
				c.pass.Reportf(call.Pos(), "body is not idempotent: close escapes the transaction (and panics when replayed)")
			}
			return
		}
	}

	if fn := astq.CalleeFunc(c.info, call); fn != nil && fn.Pkg() != nil && sideEffectPkgs[fn.Pkg().Path()] {
		c.pass.Reportf(call.Pos(), "body is not idempotent: call to %s.%s is a non-Accessor side effect or non-deterministic input; compute it before the critical section", fn.Pkg().Name(), fn.Name())
		return
	}

	// A method call on a captured receiver, or a call through a captured
	// func value. If the accessor is threaded through as an argument the
	// callee participates in the transaction (the data-structure helper
	// idiom); otherwise it may read or advance hidden state on every retry
	// — whether the callee resolves statically or not, since even a
	// module-local method can mutate its receiver. Each captured object is
	// reported at its first offending call only.
	if c.mentionsAccessor(call) {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel := c.info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			if v, via := c.capturedRoot(fun.X); v != nil && !c.reportedRecv[v] {
				c.reportedRecv[v] = true
				if via != nil {
					c.pass.Reportf(call.Pos(), "body is not idempotent: method call on %q, which aliases captured %q, without the accessor may observe or advance hidden state on every re-execution (first such call; one report per captured object)", via.Name(), v.Name())
					return
				}
				c.pass.Reportf(call.Pos(), "body is not idempotent: method call on captured %q without the accessor may observe or advance hidden state on every re-execution (first such call; one report per captured object)", v.Name())
			}
		}
	case *ast.Ident:
		if v, ok := c.info.Uses[fun].(*types.Var); ok && astq.CapturedBy(v, c.lit) && !c.reportedRecv[v] {
			c.reportedRecv[v] = true
			c.pass.Reportf(call.Pos(), "body is not idempotent: call to captured func value %q without the accessor may observe or advance hidden state on every re-execution (first such call; one report per captured object)", v.Name())
		}
	}
}

// mentionsAccessor reports whether any call argument references the
// accessor parameter.
func (c *bodyCheck) mentionsAccessor(call *ast.CallExpr) bool {
	if c.accObj == nil {
		return false
	}
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && c.info.Uses[id] == c.accObj {
				found = true
			}
			return !found
		})
	}
	return found
}
