package interleave

import (
	"go/ast"
	"go/types"

	"sprwl/internal/env"
)

// Call lowering. Three layers, checked in order:
//
//  1. Conversions are identity (every modeled value is a uint64 word).
//  2. Intrinsics replace infrastructure the model abstracts: the simulated
//     env.Env memory (whose Load/Store/CAS/Add *are* the atomic steps),
//     the observability ring, the contention estimator, and the
//     park.Waiter spin-vs-park heuristic (which becomes a
//     nondeterministic OpChoice so the checker covers both outcomes, or
//     an OpSpin when the waiter has no parker).
//  3. Everything else inlines from source. Interface calls (park.Parker)
//     resolve through the bound object's concrete type.

func (f *frame) lowerCall(call *ast.CallExpr) (*absVal, error) {
	// Type conversions: uint64(x), memmodel.Addr(i), int(...).
	if tv, ok := f.info().Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return nil, f.errAt(call, "unsupported conversion arity")
		}
		return f.evalExpr(call.Args[0])
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := f.info().Uses[fun]
		switch o := obj.(type) {
		case *types.Builtin:
			return nil, f.errAt(call, "builtin %s in modeled code", fun.Name)
		case *types.Func:
			return f.inlineStatic(call, o, nil)
		case *types.Var:
			v, ok := f.vars[o]
			if !ok {
				return nil, f.errAt(call, "call through unbound %s", fun.Name)
			}
			return f.callFnVal(call, v)
		}
		return nil, f.errAt(call, "unsupported call target %s", fun.Name)
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := f.info().Uses[id].(*types.PkgName); isPkg {
				fn, ok := f.info().Uses[fun.Sel].(*types.Func)
				if !ok {
					return nil, f.errAt(call, "unsupported package reference %s.%s", id.Name, fun.Sel.Name)
				}
				return f.inlineStatic(call, fn, nil)
			}
		}
		base, err := f.evalExpr(fun.X)
		if err != nil {
			return nil, err
		}
		name := fun.Sel.Name
		switch {
		case base.cell != nil:
			return f.cellMethod(call, base.cell, name)
		case base.obj != nil:
			return f.objMethod(call, base.obj, fun.Sel, name)
		case base.fn != "":
			return f.callFnVal(call, base)
		}
		return nil, f.errAt(call, "method %s on %s", name, base.describe())
	}
	return nil, f.errAt(call, "unsupported call form %T", call.Fun)
}

func (f *frame) evalArgs(call *ast.CallExpr) ([]*absVal, error) {
	args := make([]*absVal, 0, len(call.Args))
	for _, a := range call.Args {
		v, err := f.evalExpr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

func (f *frame) numArgs(call *ast.CallExpr, want int) ([]*Expr, error) {
	if len(call.Args) != want {
		return nil, f.errAt(call, "want %d args, have %d", want, len(call.Args))
	}
	vals, err := f.evalArgs(call)
	if err != nil {
		return nil, err
	}
	out := make([]*Expr, len(vals))
	for i, v := range vals {
		if v.x == nil {
			return nil, f.errAt(call, "arg %d is %s, want numeric", i, v.describe())
		}
		out[i] = v.x
	}
	return out, nil
}

// inlineStatic inlines a function with known source: package-level
// functions and concrete methods.
func (f *frame) inlineStatic(call *ast.CallExpr, fn *types.Func, recv *absVal) (*absVal, error) {
	src, ok := f.lo.ex.prog.FuncSource(fn)
	if !ok {
		return nil, f.errAt(call, "no source for %s (outside the module?)", fn.FullName())
	}
	args, err := f.evalArgs(call)
	if err != nil {
		return nil, err
	}
	site := f.site + ">" + fn.Name()
	return f.lo.inlineDecl(src.Pkg, src.Decl, recv, args, site, call)
}

// objMethod dispatches a method call on a symbolic object: intrinsic
// kinds first, then source inlining (resolving interface methods through
// the object's concrete type).
func (f *frame) objMethod(call *ast.CallExpr, o *object, selIdent *ast.Ident, name string) (*absVal, error) {
	if o.isNil {
		f.lo.emit(Instr{Op: OpTrap, Note: "method " + name + " on nil " + o.name})
		return numVal(Konst(0)), nil
	}
	switch o.kind {
	case "env":
		return f.envMethod(call, name)
	case "ring":
		// Observability ring: invisible to the protocol's shared state.
		return numVal(Konst(0)), nil
	case "est":
		// Contention estimator: the model pins every output to 0 so
		// adaptive branches fold deterministically per configuration.
		return numVal(Konst(0)), nil
	case "Waiter":
		return f.waiterMethod(call, o, name)
	}
	if v, ok := o.fields[name]; ok && v.fn != "" {
		// Calling a func-typed field (park.Table.load).
		return f.callFnVal(call, v)
	}
	fn, ok := f.info().Uses[selIdent].(*types.Func)
	if !ok {
		return nil, f.errAt(call, "unresolved method %s.%s", o.name, name)
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
			return f.inlineConcrete(call, o, name)
		}
	}
	return f.inlineStatic(call, fn, objVal(o))
}

// inlineConcrete resolves an interface method against the bound object's
// concrete type and inlines it.
func (f *frame) inlineConcrete(call *ast.CallExpr, o *object, name string) (*absVal, error) {
	if o.ref.pkgPath == "" {
		return nil, f.errAt(call, "interface call %s.%s on object without a concrete binding", o.name, name)
	}
	ref := o.ref
	ref.name = name
	pkg, decl, err := f.lo.ex.lookup(ref)
	if err != nil {
		return nil, f.errAt(call, "%v", err)
	}
	args, err := f.evalArgs(call)
	if err != nil {
		return nil, err
	}
	site := f.site + ">" + name
	return f.lo.inlineDecl(pkg, decl, objVal(o), args, site, call)
}

// envMethod lowers the simulated-memory interface: these calls *are* the
// atomic steps of the model.
func (f *frame) envMethod(call *ast.CallExpr, name string) (*absVal, error) {
	switch name {
	case "Load":
		a, err := f.numArgs(call, 1)
		if err != nil {
			return nil, err
		}
		r := f.lo.newReg()
		f.lo.emit(Instr{Op: OpLoad, Dst: r, Loc: a[0], Atomic: true})
		return numVal(RegRef(r)), nil
	case "Store":
		a, err := f.numArgs(call, 2)
		if err != nil {
			return nil, err
		}
		f.lo.emit(Instr{Op: OpStore, Loc: a[0], Val: a[1], Atomic: true})
		return nil, nil
	case "CAS":
		a, err := f.numArgs(call, 3)
		if err != nil {
			return nil, err
		}
		r := f.lo.newReg()
		f.lo.emit(Instr{Op: OpCAS, Dst: r, Loc: a[0], Old: a[1], Val: a[2]})
		return numVal(RegRef(r)), nil
	case "Add":
		a, err := f.numArgs(call, 2)
		if err != nil {
			return nil, err
		}
		r := f.lo.newReg()
		f.lo.emit(Instr{Op: OpRMWAdd, Dst: r, Loc: a[0], Val: a[1]})
		return numVal(RegRef(r)), nil
	case "Attempt":
		// A hardware-transaction attempt. The model pins its outcome to
		// a capacity abort, which skips the attempt budget and sends
		// every attempt straight to the fallback path: the HTM commit
		// path's serializability is the hardware's guarantee, while the
		// protocol obligations under test live on the fallback paths.
		// The closure body is never lowered.
		return numVal(Konst(uint64(env.AbortCapacity))), nil
	case "Now":
		return numVal(Konst(0)), nil
	case "Yield", "WaitUntil":
		return nil, nil
	default:
		return nil, f.errAt(call, "unmodeled env method %s", name)
	}
}

// waiterMethod lowers park.Waiter: the spin-budget bookkeeping is
// thread-local heuristics, so Pause becomes a nondeterministic choice
// between spinning (fall through to the caller's re-check loop) and the
// real inlined park.Table.Park. A waiter with no parker can only spin; its
// Pause is an OpSpin, which waits for another thread's write.
func (f *frame) waiterMethod(call *ast.CallExpr, o *object, name string) (*absVal, error) {
	switch name {
	case "Pause":
		if len(call.Args) != 3 {
			return nil, f.errAt(call, "Pause wants 3 args")
		}
		addr, err := f.evalExpr(call.Args[0])
		if err != nil {
			return nil, err
		}
		expected, err := f.evalExpr(call.Args[1])
		if err != nil {
			return nil, err
		}
		// The remaining-time hint only shapes the heuristic; evaluate it
		// for its (possible) shared loads, then drop the value.
		if _, err := f.evalExpr(call.Args[2]); err != nil {
			return nil, err
		}
		if addr.x == nil || expected.x == nil {
			return nil, f.errAt(call, "non-numeric Pause args")
		}
		p, ok := o.fields["P"]
		if !ok || p.obj == nil || p.obj.isNil {
			// No parker: Pause only spins, and the caller's loop re-checks
			// once some other thread has changed memory.
			f.lo.emit(Instr{Op: OpSpin, Note: "spin"})
			return nil, nil
		}
		pc := f.lo.emit(Instr{Op: OpChoice, Note: "spin-or-park"})
		f.lo.out[pc].A = pc + 1
		ref := p.obj.ref
		if ref.pkgPath == "" {
			return nil, f.errAt(call, "parker object %s lacks a concrete binding", p.obj.name)
		}
		ref.name = "Park"
		pkg, decl, err := f.lo.ex.lookup(ref)
		if err != nil {
			return nil, f.errAt(call, "%v", err)
		}
		site := f.site + ">Park"
		if _, err := f.lo.inlineDecl(pkg, decl, objVal(p.obj), []*absVal{numVal(addr.x), numVal(expected.x)}, site, call); err != nil {
			return nil, err
		}
		f.lo.out[pc].B = len(f.lo.out)
		return nil, nil
	case "CanPark":
		p, ok := o.fields["P"]
		canPark := ok && p.obj != nil && !p.obj.isNil
		return numVal(Konst(boolTo(canPark))), nil
	default:
		// Report/ReportParks and the other accounting methods are
		// thread-local heuristics with no shared-memory effect.
		return numVal(Konst(0)), nil
	}
}

// cellMethod lowers method calls on bound leaf cells: sync.Mutex,
// sync.Cond, and sync/atomic fields.
func (f *frame) cellMethod(call *ast.CallExpr, c *cellRef, name string) (*absVal, error) {
	switch c.kind {
	case mutexCell:
		switch name {
		case "Lock":
			f.lo.emit(Instr{Op: OpMutexLock, Loc: c.addr})
			return nil, nil
		case "Unlock":
			f.lo.emit(Instr{Op: OpMutexUnlock, Loc: c.addr})
			return nil, nil
		}
	case condCell:
		switch name {
		case "Wait":
			f.lo.emit(Instr{Op: OpCondWait, Loc: c.addr})
			return nil, nil
		case "Broadcast":
			f.lo.emit(Instr{Op: OpCondBroadcast, Loc: c.addr})
			return nil, nil
		}
	case atomicCell:
		switch name {
		case "Load":
			r := f.lo.newReg()
			f.lo.emit(Instr{Op: OpLoad, Dst: r, Loc: c.addr, Atomic: true})
			return numVal(RegRef(r)), nil
		case "Store":
			a, err := f.numArgs(call, 1)
			if err != nil {
				return nil, err
			}
			f.lo.emit(Instr{Op: OpStore, Loc: c.addr, Val: a[0], Atomic: true})
			return nil, nil
		case "Add":
			a, err := f.numArgs(call, 1)
			if err != nil {
				return nil, err
			}
			r := f.lo.newReg()
			f.lo.emit(Instr{Op: OpRMWAdd, Dst: r, Loc: c.addr, Val: a[0]})
			return numVal(RegRef(r)), nil
		case "CompareAndSwap":
			a, err := f.numArgs(call, 2)
			if err != nil {
				return nil, err
			}
			r := f.lo.newReg()
			f.lo.emit(Instr{Op: OpCAS, Dst: r, Loc: c.addr, Old: a[0], Val: a[1]})
			return numVal(RegRef(r)), nil
		}
	}
	return nil, f.errAt(call, "unsupported cell method %s", name)
}

// callFnVal dispatches calls through func-typed bindings: the simulated
// critical-section body and park.Table's memory hook.
func (f *frame) callFnVal(call *ast.CallExpr, v *absVal) (*absVal, error) {
	switch v.fn {
	case "envload":
		// park.Table.load: an atomic load of the simulated word.
		a, err := f.numArgs(call, 1)
		if err != nil {
			return nil, err
		}
		r := f.lo.newReg()
		f.lo.emit(Instr{Op: OpLoad, Dst: r, Loc: a[0], Atomic: true})
		return numVal(RegRef(r)), nil
	case "csbody":
		return nil, f.lowerCsBody(call)
	case "":
		return nil, f.errAt(call, "call through %s", v.describe())
	default:
		return nil, f.errAt(call, "unknown intrinsic func %q", v.fn)
	}
}

// lowerCsBody emits the synthetic critical-section body: the payload the
// protocol's mutual-exclusion and torn-section checks observe. Readers
// load both data words and assert they agree; writers store their unique
// writeVal to both. OpCsEnter/OpCsExit give the machine the live section
// counts for the mutual-exclusion check.
func (f *frame) lowerCsBody(call *ast.CallExpr) error {
	d0 := Konst(f.lo.opts.dataCells[0])
	d1 := Konst(f.lo.opts.dataCells[1])
	switch f.lo.opts.role {
	case csReader:
		f.lo.emit(Instr{Op: OpCsEnter, Val: Konst(0), Note: "reader section"})
		r0 := f.lo.newReg()
		f.lo.emit(Instr{Op: OpLoad, Dst: r0, Loc: d0, Atomic: true, Note: "data0"})
		r1 := f.lo.newReg()
		f.lo.emit(Instr{Op: OpLoad, Dst: r1, Loc: d1, Atomic: true, Note: "data1"})
		f.lo.emit(Instr{
			Op:   OpAssert,
			Cond: Bin(OpEq, false, RegRef(r0), RegRef(r1)),
			Note: "torn section body: data0 != data1",
		})
		f.lo.emit(Instr{Op: OpCsExit, Val: Konst(0)})
	case csWriter:
		wv := Konst(f.lo.opts.writeVal)
		f.lo.emit(Instr{Op: OpCsEnter, Val: Konst(1), Note: "writer section"})
		f.lo.emit(Instr{Op: OpStore, Loc: d0, Val: wv, Atomic: true, Note: "data0"})
		f.lo.emit(Instr{Op: OpStore, Loc: d1, Val: wv, Atomic: true, Note: "data1"})
		f.lo.emit(Instr{Op: OpCsExit, Val: Konst(1)})
	}
	return nil
}
