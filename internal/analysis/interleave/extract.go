package interleave

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"sprwl/internal/analysis/driver"
)

// The lowerer compiles the Go AST of annotated protocol functions into
// atomic-step programs. Design rules:
//
//   - Every access to modeled shared memory (env.Env loads/stores/CAS/Add,
//     park.shard fields, sync.Mutex/Cond operations) becomes one visible
//     Instr; everything thread-local lowers to invisible OpLocal/OpJump/
//     OpBranch instructions that coalesce into the neighbouring step.
//   - Configuration branches fold away at extraction time: Options fields,
//     slots, and addresses are bound to constants, and `if`/`switch` on
//     constant conditions lower only the taken arm, so a NoSched reader
//     program contains no trace of the VersionedSGL path.
//   - The subset is explicit: any construct outside it is an extraction
//     error, never a silent approximation.

type lowerer struct {
	ex   *extractor
	opts extractOpts
	out  []Instr

	nextReg Reg
	depth   int

	curSite string
	curPos  string
}

// frame is one (possibly inlined) function activation.
type frame struct {
	lo   *lowerer
	pkg  *driver.Package
	site string

	vars  map[types.Object]*absVal
	multi map[types.Object]bool

	retReg     Reg
	retVal     *absVal
	retPatches []int
	// retConsts collects constant return values; when every return folded
	// to one shared constant, the call itself stays constant (tracking-mode
	// helpers must not lose constness through the return register).
	retConsts   []uint64
	retNonConst bool

	loops []*loopCtx
}

type loopCtx struct {
	isSwitch  bool
	breaks    []int
	continues []int
}

func (f *frame) info() *types.Info { return f.pkg.Info }

func (lo *lowerer) newReg() Reg {
	r := lo.nextReg
	lo.nextReg++
	return r
}

func (lo *lowerer) emit(in Instr) int {
	if in.Site == "" {
		in.Site = lo.curSite
	}
	if in.Pos == "" {
		in.Pos = lo.curPos
	}
	lo.out = append(lo.out, in)
	return len(lo.out) - 1
}

// emitCondBranch emits a branch on cond falling through on true; the
// returned pc's B field must be patched to the false target.
func (lo *lowerer) emitCondBranch(cond *Expr) int {
	pc := lo.emit(Instr{Op: OpBranch, Cond: cond})
	lo.out[pc].A = pc + 1
	return pc
}

// emitJump emits an unpatched jump and returns its pc.
func (lo *lowerer) emitJump() int {
	return lo.emit(Instr{Op: OpJump, A: -1})
}

func (lo *lowerer) patch(pcs []int, target int) {
	for _, pc := range pcs {
		if lo.out[pc].Op == OpJump {
			lo.out[pc].A = target
		} else {
			lo.out[pc].B = target
		}
	}
}

func (lo *lowerer) posOf(pkg *driver.Package, pos token.Pos) string {
	p := lo.ex.prog.Fset.Position(pos)
	if rel, err := filepath.Rel(lo.ex.prog.ModuleDir, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// errAt wraps an extraction error with the current source position.
func (f *frame) errAt(n ast.Node, format string, args ...any) error {
	return fmt.Errorf("%s: %s: %s", f.lo.posOf(f.pkg, n.Pos()), f.site, fmt.Sprintf(format, args...))
}

// countAssigns pre-scans a function body for the number of writes to each
// local object. A local written more than once must live in a machine
// register; a single-binding local may stay symbolic (which is what lets
// configuration constants fold branches away).
func countAssigns(decl *ast.FuncDecl, info *types.Info) map[types.Object]bool {
	counts := map[types.Object]int{}
	bump := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				counts[obj]++
			} else if obj := info.Uses[id]; obj != nil {
				counts[obj]++
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				bump(l)
			}
		case *ast.IncDecStmt:
			bump(s.X)
		case *ast.RangeStmt:
			bump(s.Key)
			bump(s.Value)
		case *ast.ValueSpec:
			// `var x uint64` then `x = ...` is two writes: the zero
			// binding plus the assignment.
			for _, name := range s.Names {
				bump(name)
			}
		}
		return true
	})
	multi := map[types.Object]bool{}
	for obj, n := range counts {
		if n > 1 {
			multi[obj] = true
		}
	}
	return multi
}

// inlineDecl lowers decl's body with the receiver and arguments bound,
// appending to lo.out. The returned value is the function result (nil for
// none).
func (lo *lowerer) inlineDecl(pkg *driver.Package, decl *ast.FuncDecl, recv *absVal, args []*absVal, site string, call ast.Node) (*absVal, error) {
	if lo.depth++; lo.depth > 48 {
		return nil, fmt.Errorf("interleave: inline depth exceeded at %s (recursive protocol function?)", site)
	}
	defer func() { lo.depth-- }()

	f := &frame{
		lo:     lo,
		pkg:    pkg,
		site:   site,
		vars:   map[types.Object]*absVal{},
		multi:  countAssigns(decl, pkg.Info),
		retReg: -1,
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		name := decl.Recv.List[0].Names[0]
		if name.Name != "_" {
			if recv == nil {
				return nil, fmt.Errorf("interleave: %s: method lowered without a receiver binding", site)
			}
			if obj := pkg.Info.Defs[name]; obj != nil {
				if err := f.bindVar(obj, recv, name); err != nil {
					return nil, err
				}
			}
		}
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if i >= len(args) {
				return nil, fmt.Errorf("interleave: %s: %d args for %d params", site, len(args), i+1)
			}
			if name.Name != "_" {
				if obj := pkg.Info.Defs[name]; obj != nil {
					if err := f.bindVar(obj, args[i], name); err != nil {
						return nil, err
					}
				}
			}
			i++
		}
	}

	savedSite, savedPos := lo.curSite, lo.curPos
	lo.curSite = site
	if _, err := f.lowerBlock(decl.Body); err != nil {
		return nil, err
	}
	lo.patch(f.retPatches, len(lo.out))
	lo.curSite, lo.curPos = savedSite, savedPos

	if f.retVal != nil {
		return f.retVal, nil
	}
	if f.retReg >= 0 {
		if !f.retNonConst && len(f.retConsts) > 0 {
			same := true
			for _, c := range f.retConsts[1:] {
				if c != f.retConsts[0] {
					same = false
					break
				}
			}
			if same {
				return numVal(Konst(f.retConsts[0])), nil
			}
		}
		return numVal(RegRef(f.retReg)), nil
	}
	return nil, nil
}

// bindVar introduces a local. Multi-assigned numeric locals are backed by
// a register; single-binding locals keep the symbolic value (constant,
// object, region, cell, or a snapshotted register reference).
func (f *frame) bindVar(obj types.Object, v *absVal, at ast.Node) error {
	if v == nil {
		return f.errAt(at, "binding %s to a void value", obj.Name())
	}
	if f.multi[obj] {
		if v.x == nil {
			return f.errAt(at, "mutable local %s holds a non-numeric value (%s); bind it in the configuration instead", obj.Name(), v.describe())
		}
		r := f.lo.newReg()
		f.lo.emit(Instr{Op: OpLocal, Dst: r, Val: v.x, Note: obj.Name()})
		f.vars[obj] = numVal(RegRef(r))
		return nil
	}
	if v.x != nil {
		if _, isConst := v.x.ConstOf(); !isConst && v.x.Kind != EReg {
			// Snapshot runtime expressions so later register churn
			// cannot change this local's value.
			r := f.lo.newReg()
			f.lo.emit(Instr{Op: OpLocal, Dst: r, Val: v.x, Note: obj.Name()})
			v = numVal(RegRef(r))
		}
	}
	f.vars[obj] = v
	return nil
}

// assignVar writes an already-bound local.
func (f *frame) assignVar(obj types.Object, v *absVal, at ast.Node) error {
	cur, ok := f.vars[obj]
	if !ok {
		return f.bindVar(obj, v, at)
	}
	if cur.x == nil || cur.x.Kind != EReg {
		// Single-binding locals are never reassigned (the pre-scan put
		// every multi-write local in a register); reaching here means
		// the pre-scan missed a write path.
		return f.errAt(at, "reassignment of non-register local %s", obj.Name())
	}
	if v == nil || v.x == nil {
		return f.errAt(at, "assigning non-numeric value to register local %s", obj.Name())
	}
	f.lo.emit(Instr{Op: OpLocal, Dst: cur.x.Reg, Val: v.x, Note: obj.Name()})
	return nil
}

// ---- statements ----

// lowerBlock lowers stmts until the flow terminates (return/break/
// continue); it reports whether it did.
func (f *frame) lowerBlock(b *ast.BlockStmt) (bool, error) {
	for _, s := range b.List {
		term, err := f.lowerStmt(s)
		if err != nil {
			return false, err
		}
		if term {
			return true, nil
		}
	}
	return false, nil
}

func (f *frame) lowerStmt(s ast.Stmt) (bool, error) {
	f.lo.curPos = f.lo.posOf(f.pkg, s.Pos())
	switch st := s.(type) {
	case *ast.BlockStmt:
		return f.lowerBlock(st)
	case *ast.ExprStmt:
		_, err := f.evalExpr(st.X)
		return false, err
	case *ast.AssignStmt:
		return false, f.lowerAssign(st)
	case *ast.IncDecStmt:
		return false, f.lowerIncDec(st)
	case *ast.DeclStmt:
		return false, f.lowerDecl(st)
	case *ast.IfStmt:
		return f.lowerIf(st)
	case *ast.ForStmt:
		return f.lowerFor(st)
	case *ast.SwitchStmt:
		return f.lowerSwitch(st)
	case *ast.ReturnStmt:
		return true, f.lowerReturn(st)
	case *ast.BranchStmt:
		return f.lowerBranch(st)
	case *ast.EmptyStmt:
		return false, nil
	default:
		return false, f.errAt(s, "unsupported statement %T in modeled code", s)
	}
}

func (f *frame) lowerDecl(st *ast.DeclStmt) error {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return f.errAt(st, "unsupported declaration in modeled code")
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			return f.errAt(st, "unsupported var spec")
		}
		for i, name := range vs.Names {
			var v *absVal
			if i < len(vs.Values) {
				val, err := f.evalExpr(vs.Values[i])
				if err != nil {
					return err
				}
				v = val
			} else {
				v = numVal(Konst(0))
			}
			if name.Name == "_" {
				continue
			}
			if obj := f.info().Defs[name]; obj != nil {
				if err := f.bindVar(obj, v, name); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (f *frame) lowerAssign(st *ast.AssignStmt) error {
	if len(st.Lhs) != len(st.Rhs) {
		return f.errAt(st, "multi-value assignment in modeled code")
	}
	for i := range st.Lhs {
		rhs := st.Rhs[i]
		lhs := st.Lhs[i]
		var v *absVal
		if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
			val, err := f.evalExpr(rhs)
			if err != nil {
				return err
			}
			v = val
		} else {
			// Compound assignment: read-modify-write on the target.
			cur, err := f.readLvalue(lhs)
			if err != nil {
				return err
			}
			rv, err := f.evalExpr(rhs)
			if err != nil {
				return err
			}
			if cur.x == nil || rv.x == nil {
				return f.errAt(st, "compound assignment on non-numeric value")
			}
			op, ok := compoundOp(st.Tok)
			if !ok {
				return f.errAt(st, "unsupported compound assignment %s", st.Tok)
			}
			v = numVal(Bin(op, f.isSigned(lhs), cur.x, rv.x))
		}
		if err := f.writeLvalue(lhs, v, st.Tok == token.DEFINE); err != nil {
			return err
		}
	}
	return nil
}

func compoundOp(tok token.Token) (BinOp, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return OpAdd, true
	case token.SUB_ASSIGN:
		return OpSub, true
	case token.OR_ASSIGN:
		return OpOr, true
	case token.AND_ASSIGN:
		return OpAnd, true
	case token.XOR_ASSIGN:
		return OpXor, true
	case token.SHL_ASSIGN:
		return OpShl, true
	case token.SHR_ASSIGN:
		return OpShr, true
	case token.MUL_ASSIGN:
		return OpMul, true
	}
	return 0, false
}

func (f *frame) lowerIncDec(st *ast.IncDecStmt) error {
	cur, err := f.readLvalue(st.X)
	if err != nil {
		return err
	}
	if cur.x == nil {
		return f.errAt(st, "inc/dec on non-numeric value")
	}
	op := OpAdd
	if st.Tok == token.DEC {
		op = OpSub
	}
	return f.writeLvalue(st.X, numVal(Bin(op, false, cur.x, Konst(1))), false)
}

// readLvalue evaluates an assignable expression's current value; shared
// cells emit a load step.
func (f *frame) readLvalue(e ast.Expr) (*absVal, error) {
	return f.evalExpr(e)
}

// writeLvalue assigns to a local, an object field, or a bound memory cell.
func (f *frame) writeLvalue(e ast.Expr, v *absVal, define bool) error {
	switch lhs := ast.Unparen(e).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return nil
		}
		if define {
			if obj := f.info().Defs[lhs]; obj != nil {
				return f.bindVar(obj, v, lhs)
			}
			// A := with no new variable on this ident (redeclaration in
			// a sibling position) behaves as assignment.
		}
		obj := f.info().Uses[lhs]
		if obj == nil {
			obj = f.info().Defs[lhs]
		}
		if obj == nil {
			return f.errAt(lhs, "unresolved assignment target %s", lhs.Name)
		}
		return f.assignVar(obj, v, lhs)
	case *ast.SelectorExpr:
		base, err := f.evalExpr(lhs.X)
		if err != nil {
			return err
		}
		switch {
		case base.obj != nil:
			return f.assignField(base.obj, lhs.Sel.Name, v, lhs)
		case base.reg != nil:
			cell, err := regionField2(base.reg, lhs.Sel.Name)
			if err != nil {
				return f.errAt(lhs, "%v", err)
			}
			return f.storeCell(cell, v, lhs)
		}
		return f.errAt(lhs, "assignment through %s", base.describe())
	default:
		return f.errAt(e, "unsupported assignment target %T", e)
	}
}

// assignField updates an object field. Constant fields may be overwritten
// with the same constant (idempotent re-publication in a loop); a
// conflicting runtime value promotes the field to a stable register so
// every past and future read through the register stays coherent.
func (f *frame) assignField(o *object, name string, v *absVal, at ast.Node) error {
	if o.isNil {
		f.lo.emit(Instr{Op: OpTrap, Note: "field store on nil " + o.name})
		return nil
	}
	cur, ok := o.fields[name]
	if !ok {
		o.fields[name] = v
		return nil
	}
	// Non-numeric slots (bodies stashed in h.txBody, etc.) follow
	// last-write-wins; they are never read back by modeled code paths.
	if cur.x == nil || v == nil || v.x == nil {
		o.fields[name] = v
		return nil
	}
	if cur.x.Kind == EReg {
		f.lo.emit(Instr{Op: OpLocal, Dst: cur.x.Reg, Val: v.x, Note: o.name + "." + name})
		return nil
	}
	if c1, ok1 := cur.x.ConstOf(); ok1 {
		if c2, ok2 := v.x.ConstOf(); ok2 && c1 == c2 {
			return nil
		}
	}
	// Promote: from here on the field lives in a register. Reads folded
	// before this point saw the old constant, which is only sound when
	// no loop re-executes them — modeled code keeps constant-published
	// fields (flaggedIn, flagToken) loop-stable, so a conflict here is a
	// modeling bug to surface, not to paper over.
	r := f.lo.newReg()
	f.lo.emit(Instr{Op: OpLocal, Dst: r, Val: cur.x, Note: o.name + "." + name + " (promoted)"})
	f.lo.emit(Instr{Op: OpLocal, Dst: r, Val: v.x, Note: o.name + "." + name})
	o.fields[name] = numVal(RegRef(r))
	return nil
}

func (f *frame) storeCell(c *cellRef, v *absVal, at ast.Node) error {
	if v == nil || v.x == nil {
		return f.errAt(at, "storing non-numeric value to a memory cell")
	}
	switch c.kind {
	case plainCell:
		f.lo.emit(Instr{Op: OpStore, Loc: c.addr, Val: v.x})
	case atomicCell:
		f.lo.emit(Instr{Op: OpStore, Loc: c.addr, Val: v.x, Atomic: true})
	default:
		return f.errAt(at, "direct store to a mutex/cond cell")
	}
	return nil
}

func (f *frame) lowerIf(st *ast.IfStmt) (bool, error) {
	if st.Init != nil {
		if _, err := f.lowerStmt(st.Init); err != nil {
			return false, err
		}
	}
	cond, err := f.evalExpr(st.Cond)
	if err != nil {
		return false, err
	}
	if cond.x == nil {
		return false, f.errAt(st.Cond, "non-numeric if condition")
	}
	if c, ok := cond.x.ConstOf(); ok {
		if c != 0 {
			return f.lowerBlock(st.Body)
		}
		if st.Else != nil {
			return f.lowerStmt(st.Else)
		}
		return false, nil
	}
	br := f.lo.emitCondBranch(cond.x)
	thenTerm, err := f.lowerBlock(st.Body)
	if err != nil {
		return false, err
	}
	if st.Else == nil {
		f.lo.patch([]int{br}, len(f.lo.out))
		return false, nil
	}
	var overElse []int
	if !thenTerm {
		overElse = append(overElse, f.lo.emitJump())
	}
	f.lo.patch([]int{br}, len(f.lo.out))
	elseTerm, err := f.lowerStmt(st.Else)
	if err != nil {
		return false, err
	}
	f.lo.patch(overElse, len(f.lo.out))
	return thenTerm && elseTerm, nil
}

func (f *frame) lowerFor(st *ast.ForStmt) (bool, error) {
	if st.Init != nil {
		if _, err := f.lowerStmt(st.Init); err != nil {
			return false, err
		}
	}
	ctx := &loopCtx{}
	f.loops = append(f.loops, ctx)
	defer func() { f.loops = f.loops[:len(f.loops)-1] }()

	condPC := len(f.lo.out)
	var exitPatches []int
	if st.Cond != nil {
		cond, err := f.evalExpr(st.Cond)
		if err != nil {
			return false, err
		}
		if cond.x == nil {
			return false, f.errAt(st.Cond, "non-numeric loop condition")
		}
		if c, ok := cond.x.ConstOf(); ok {
			if c == 0 {
				return false, nil // loop never runs
			}
			// Constant-true condition: no branch.
		} else {
			exitPatches = append(exitPatches, f.lo.emitCondBranch(cond.x))
		}
	}
	bodyTerm, err := f.lowerBlock(st.Body)
	if err != nil {
		return false, err
	}
	postPC := len(f.lo.out)
	if st.Post != nil {
		if _, err := f.lowerStmt(st.Post); err != nil {
			return false, err
		}
	}
	if !bodyTerm {
		f.lo.emit(Instr{Op: OpJump, A: condPC})
	} else if st.Post != nil || len(ctx.continues) > 0 {
		// The body always terminates but continue edges still reach the
		// post statement; close the back edge for them.
		f.lo.emit(Instr{Op: OpJump, A: condPC})
	}
	f.lo.patch(ctx.continues, postPC)
	end := len(f.lo.out)
	f.lo.patch(exitPatches, end)
	f.lo.patch(ctx.breaks, end)

	// An infinite loop with no break never falls through.
	infinite := st.Cond == nil || len(exitPatches) == 0
	if st.Cond != nil {
		if c, ok := constCondOf(f, st.Cond); ok && c != 0 {
			infinite = true
		}
	}
	return infinite && len(ctx.breaks) == 0, nil
}

// constCondOf re-checks whether a loop condition folded to a constant
// (side-effect-free: only consults the type-checker's constant table).
func constCondOf(f *frame, e ast.Expr) (uint64, bool) {
	if tv, ok := f.info().Types[e]; ok && tv.Value != nil {
		return constToUint64(tv.Value), true
	}
	return 0, false
}

func (f *frame) lowerSwitch(st *ast.SwitchStmt) (bool, error) {
	if st.Init != nil {
		if _, err := f.lowerStmt(st.Init); err != nil {
			return false, err
		}
	}
	var tag *absVal
	if st.Tag != nil {
		v, err := f.evalExpr(st.Tag)
		if err != nil {
			return false, err
		}
		if v.x == nil {
			return false, f.errAt(st.Tag, "non-numeric switch tag")
		}
		tag = v
	}

	var clauses []*ast.CaseClause
	for _, s := range st.Body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			return false, f.errAt(s, "unsupported switch clause")
		}
		clauses = append(clauses, cc)
	}

	// Static selection: a constant tag against all-constant case values
	// (or `switch { case constExpr: }`) lowers only the chosen arm —
	// the tracking-mode and backend dispatches of internal/core fold
	// this way.
	if chosen, ok, err := f.staticSwitchArm(st, tag, clauses); err != nil {
		return false, err
	} else if ok {
		if chosen == nil {
			return false, nil
		}
		return f.lowerCaseBody(chosen)
	}

	// Runtime chain.
	ctx := &loopCtx{isSwitch: true}
	f.loops = append(f.loops, ctx)
	defer func() { f.loops = f.loops[:len(f.loops)-1] }()

	var def *ast.CaseClause
	allTerm := true
	var donePatches []int
	for _, cc := range clauses {
		if cc.List == nil {
			def = cc
			continue
		}
		var armPatches []int
		var nextPatches []int
		for _, ce := range cc.List {
			cv, err := f.evalExpr(ce)
			if err != nil {
				return false, err
			}
			if cv.x == nil {
				return false, f.errAt(ce, "non-numeric case value")
			}
			cond := cv.x
			if tag != nil {
				cond = Bin(OpEq, f.isSigned(ce), tag.x, cv.x)
			}
			if c, ok := cond.ConstOf(); ok {
				if c != 0 {
					armPatches = append(armPatches, f.lo.emitJump())
				}
				continue
			}
			pc := f.lo.emit(Instr{Op: OpBranch, Cond: cond, A: -1})
			f.lo.out[pc].B = pc + 1
			armPatches = append(armPatches, pc)
		}
		nextPatches = append(nextPatches, f.lo.emitJump())
		f.lo.patch(armPatches, len(f.lo.out))
		term, err := f.lowerCaseBody(cc)
		if err != nil {
			return false, err
		}
		if !term {
			donePatches = append(donePatches, f.lo.emitJump())
			allTerm = false
		}
		f.lo.patch(nextPatches, len(f.lo.out))
	}
	if def != nil {
		term, err := f.lowerCaseBody(def)
		if err != nil {
			return false, err
		}
		if !term {
			allTerm = false
		}
	} else {
		allTerm = false
	}
	end := len(f.lo.out)
	f.lo.patch(donePatches, end)
	f.lo.patch(ctx.breaks, end)
	if len(ctx.breaks) > 0 {
		allTerm = false
	}
	return allTerm, nil
}

// staticSwitchArm picks the clause a constant switch selects, or reports
// that the switch needs runtime lowering. Case expressions are evaluated
// speculatively: a value that folds to a constant without emitting any
// instruction (package constants, but also bound option fields like
// l.opts.Tracking, which the type checker does not see as constant) keeps
// the switch static; anything else rolls the trial back.
func (f *frame) staticSwitchArm(st *ast.SwitchStmt, tag *absVal, clauses []*ast.CaseClause) (*ast.CaseClause, bool, error) {
	var tagC uint64
	if tag != nil {
		c, ok := tag.x.ConstOf()
		if !ok {
			return nil, false, nil
		}
		tagC = c
	}
	var def *ast.CaseClause
	for _, cc := range clauses {
		if cc.List == nil {
			def = cc
			continue
		}
		for _, ce := range cc.List {
			cv, ok := f.trialConst(ce)
			if !ok {
				return nil, false, nil
			}
			if tag == nil {
				if cv != 0 {
					return cc, true, nil
				}
			} else if cv == tagC {
				return cc, true, nil
			}
		}
	}
	return def, true, nil
}

// trialConst evaluates e and reports its value if it folded to a constant
// without emitting instructions or consuming registers; otherwise every
// side effect of the trial is rolled back.
func (f *frame) trialConst(e ast.Expr) (uint64, bool) {
	lenBefore, regBefore := len(f.lo.out), f.lo.nextReg
	v, err := f.evalExpr(e)
	if err != nil || len(f.lo.out) != lenBefore || f.lo.nextReg != regBefore {
		f.lo.out = f.lo.out[:lenBefore]
		f.lo.nextReg = regBefore
		return 0, false
	}
	if v.x == nil {
		return 0, false
	}
	c, ok := v.x.ConstOf()
	return c, ok
}

func (f *frame) lowerCaseBody(cc *ast.CaseClause) (bool, error) {
	ctxDepth := len(f.loops)
	_ = ctxDepth
	for _, s := range cc.Body {
		term, err := f.lowerStmt(s)
		if err != nil {
			return false, err
		}
		if term {
			return true, nil
		}
	}
	return false, nil
}

func (f *frame) lowerReturn(st *ast.ReturnStmt) error {
	switch len(st.Results) {
	case 0:
	case 1:
		v, err := f.evalExpr(st.Results[0])
		if err != nil {
			return err
		}
		if v != nil && v.x != nil {
			if f.retReg < 0 {
				f.retReg = f.lo.newReg()
			}
			if c, ok := v.x.ConstOf(); ok {
				f.retConsts = append(f.retConsts, c)
			} else {
				f.retNonConst = true
			}
			f.lo.emit(Instr{Op: OpLocal, Dst: f.retReg, Val: v.x, Note: "return"})
		} else {
			if f.retVal != nil && f.retVal != v {
				return f.errAt(st, "multiple returns of distinct non-numeric values")
			}
			f.retVal = v
		}
	default:
		return f.errAt(st, "multi-value return in modeled code")
	}
	f.retPatches = append(f.retPatches, f.lo.emitJump())
	return nil
}

func (f *frame) lowerBranch(st *ast.BranchStmt) (bool, error) {
	if st.Label != nil {
		return false, f.errAt(st, "labeled %s in modeled code", st.Tok)
	}
	switch st.Tok {
	case token.BREAK:
		if len(f.loops) == 0 {
			return false, f.errAt(st, "break outside loop")
		}
		ctx := f.loops[len(f.loops)-1]
		ctx.breaks = append(ctx.breaks, f.lo.emitJump())
		return true, nil
	case token.CONTINUE:
		for i := len(f.loops) - 1; i >= 0; i-- {
			if !f.loops[i].isSwitch {
				f.loops[i].continues = append(f.loops[i].continues, f.lo.emitJump())
				return true, nil
			}
		}
		return false, f.errAt(st, "continue outside loop")
	default:
		return false, f.errAt(st, "unsupported branch %s", st.Tok)
	}
}

// ---- expressions ----

func (f *frame) isSigned(e ast.Expr) bool {
	tv, ok := f.info().Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 && b.Info()&types.IsUnsigned == 0
}

func constToUint64(v constant.Value) uint64 {
	switch v.Kind() {
	case constant.Bool:
		if constant.BoolVal(v) {
			return 1
		}
		return 0
	case constant.Int:
		if u, ok := constant.Uint64Val(v); ok {
			return u
		}
		if i, ok := constant.Int64Val(v); ok {
			return uint64(i)
		}
	}
	return 0
}

func (f *frame) evalExpr(e ast.Expr) (*absVal, error) {
	// Anything the type checker proved constant folds immediately:
	// option fields are not constants, but stateWriter, tableShards,
	// obs.Reader, env.AbortConflict, untyped literals, and -1 all are.
	if tv, ok := f.info().Types[e]; ok && tv.Value != nil {
		return numVal(Konst(constToUint64(tv.Value))), nil
	}
	switch ex := e.(type) {
	case *ast.ParenExpr:
		return f.evalExpr(ex.X)
	case *ast.StarExpr:
		return f.evalExpr(ex.X)
	case *ast.Ident:
		return f.evalIdent(ex)
	case *ast.SelectorExpr:
		return f.evalSelector(ex)
	case *ast.IndexExpr:
		return f.evalIndex(ex)
	case *ast.UnaryExpr:
		return f.evalUnary(ex)
	case *ast.BinaryExpr:
		return f.evalBinary(ex)
	case *ast.CallExpr:
		return f.lowerCall(ex)
	case *ast.CompositeLit:
		return f.evalComposite(ex)
	default:
		return nil, f.errAt(e, "unsupported expression %T in modeled code", e)
	}
}

func (f *frame) evalIdent(id *ast.Ident) (*absVal, error) {
	if id.Name == "nil" {
		return objVal(nilObject("nil", "nil")), nil
	}
	if id.Name == "true" {
		return numVal(Konst(1)), nil
	}
	if id.Name == "false" {
		return numVal(Konst(0)), nil
	}
	obj := f.info().Uses[id]
	if obj == nil {
		obj = f.info().Defs[id]
	}
	if obj == nil {
		return nil, f.errAt(id, "unresolved identifier %s", id.Name)
	}
	if v, ok := f.vars[obj]; ok {
		return v, nil
	}
	return nil, f.errAt(id, "unbound identifier %s (not a local, parameter, or constant)", id.Name)
}

func (f *frame) evalSelector(sel *ast.SelectorExpr) (*absVal, error) {
	// Package-qualified references (obs.Reader) are constants and were
	// handled by the constant fold; a remaining pkg.X is unsupported.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := f.info().Uses[id].(*types.PkgName); isPkg {
			return nil, f.errAt(sel, "unsupported package-level reference %s.%s", id.Name, sel.Sel.Name)
		}
	}
	base, err := f.evalExpr(sel.X)
	if err != nil {
		return nil, err
	}
	name := sel.Sel.Name
	switch {
	case base.obj != nil:
		if base.obj.isNil {
			f.lo.emit(Instr{Op: OpTrap, Note: "field " + name + " of nil " + base.obj.name})
			return numVal(Konst(0)), nil
		}
		v, ok := base.obj.fields[name]
		if !ok {
			return nil, f.errAt(sel, "unbound field %s.%s; add it to the configuration binding", base.obj.name, name)
		}
		return v, nil
	case base.reg != nil:
		cell, err := regionField2(base.reg, name)
		if err != nil {
			return nil, f.errAt(sel, "%v", err)
		}
		// A leaf cell in value position is a read.
		switch cell.kind {
		case plainCell:
			r := f.lo.newReg()
			f.lo.emit(Instr{Op: OpLoad, Dst: r, Loc: cell.addr, Note: base.reg.name + "." + name})
			return numVal(RegRef(r)), nil
		default:
			return &absVal{cell: cell}, nil
		}
	}
	return nil, f.errAt(sel, "selector on %s", base.describe())
}

func regionField2(r *region, name string) (*cellRef, error) {
	if r.stride > 0 {
		return nil, fmt.Errorf("field %s on unindexed array region %s", name, r.name)
	}
	rf, ok := r.fields[name]
	if !ok {
		return nil, fmt.Errorf("region %s has no field %s in its layout", r.name, name)
	}
	return &cellRef{addr: Bin(OpAdd, false, r.base, Konst(uint64(rf.off))), kind: rf.kind}, nil
}

func (f *frame) evalIndex(ix *ast.IndexExpr) (*absVal, error) {
	base, err := f.evalExpr(ix.X)
	if err != nil {
		return nil, err
	}
	idx, err := f.evalExpr(ix.Index)
	if err != nil {
		return nil, err
	}
	if base.reg == nil || base.reg.stride <= 0 {
		return nil, f.errAt(ix, "index on %s", base.describe())
	}
	if idx.x == nil {
		return nil, f.errAt(ix, "non-numeric index")
	}
	elemBase := Bin(OpAdd, false, base.reg.base,
		Bin(OpMul, false, idx.x, Konst(uint64(base.reg.stride))))
	return regionVal(&region{
		name:   base.reg.name + "[i]",
		base:   elemBase,
		fields: base.reg.fields,
	}), nil
}

func (f *frame) evalUnary(u *ast.UnaryExpr) (*absVal, error) {
	switch u.Op {
	case token.AND:
		// Taking the address of a region element (or an object) keeps
		// the reference value; our references are already pointers.
		return f.evalExpr(u.X)
	case token.NOT:
		v, err := f.evalExpr(u.X)
		if err != nil {
			return nil, err
		}
		if v.x == nil {
			return nil, f.errAt(u, "! on non-numeric value")
		}
		return numVal(Not(v.x)), nil
	case token.SUB:
		v, err := f.evalExpr(u.X)
		if err != nil {
			return nil, err
		}
		if v.x == nil {
			return nil, f.errAt(u, "- on non-numeric value")
		}
		return numVal(Bin(OpSub, false, Konst(0), v.x)), nil
	case token.XOR:
		v, err := f.evalExpr(u.X)
		if err != nil {
			return nil, err
		}
		if v.x == nil {
			return nil, f.errAt(u, "^ on non-numeric value")
		}
		return numVal(Bin(OpXor, false, Konst(^uint64(0)), v.x)), nil
	default:
		return nil, f.errAt(u, "unsupported unary %s", u.Op)
	}
}

func (f *frame) evalBinary(b *ast.BinaryExpr) (*absVal, error) {
	if b.Op == token.LAND || b.Op == token.LOR {
		return f.evalShortCircuit(b)
	}
	l, err := f.evalExpr(b.X)
	if err != nil {
		return nil, err
	}
	r, err := f.evalExpr(b.Y)
	if err != nil {
		return nil, err
	}
	// Reference comparisons (x == nil, p != nil) fold at extraction
	// time: the binding decides which backends exist.
	if l.obj != nil || r.obj != nil {
		eq, err := refEqual(l, r)
		if err != nil {
			return nil, f.errAt(b, "%v", err)
		}
		switch b.Op {
		case token.EQL:
			return numVal(Konst(boolTo(eq))), nil
		case token.NEQ:
			return numVal(Konst(boolTo(!eq))), nil
		}
		return nil, f.errAt(b, "unsupported reference operation %s", b.Op)
	}
	if l.x == nil || r.x == nil {
		return nil, f.errAt(b, "binary %s on %s and %s", b.Op, l.describe(), r.describe())
	}
	op, ok := binOpOf(b.Op)
	if !ok {
		return nil, f.errAt(b, "unsupported operator %s", b.Op)
	}
	return numVal(Bin(op, f.isSigned(b.X), l.x, r.x)), nil
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func refEqual(l, r *absVal) (bool, error) {
	lNil := l.obj != nil && l.obj.isNil
	rNil := r.obj != nil && r.obj.isNil
	switch {
	case lNil && rNil:
		return true, nil
	case lNil || rNil:
		// nil against a bound object (or any non-nil value).
		other := l
		if lNil {
			other = r
		}
		if other.obj != nil && other.obj.isNil {
			return true, nil
		}
		return false, nil
	case l.obj != nil && r.obj != nil:
		return l.obj == r.obj, nil
	}
	return false, fmt.Errorf("reference comparison on %s and %s", l.describe(), r.describe())
}

func binOpOf(tok token.Token) (BinOp, bool) {
	switch tok {
	case token.ADD:
		return OpAdd, true
	case token.SUB:
		return OpSub, true
	case token.MUL:
		return OpMul, true
	case token.QUO:
		return OpDiv, true
	case token.REM:
		return OpMod, true
	case token.AND:
		return OpAnd, true
	case token.OR:
		return OpOr, true
	case token.XOR:
		return OpXor, true
	case token.SHL:
		return OpShl, true
	case token.SHR:
		return OpShr, true
	case token.EQL:
		return OpEq, true
	case token.NEQ:
		return OpNe, true
	case token.LSS:
		return OpLt, true
	case token.LEQ:
		return OpLe, true
	case token.GTR:
		return OpGt, true
	case token.GEQ:
		return OpGe, true
	}
	return 0, false
}

// evalShortCircuit lowers && and || with Go's evaluation order: the right
// operand's side effects (shared loads, CAS) happen only on the paths
// that reach it.
func (f *frame) evalShortCircuit(b *ast.BinaryExpr) (*absVal, error) {
	l, err := f.evalExpr(b.X)
	if err != nil {
		return nil, err
	}
	if l.x == nil {
		return nil, f.errAt(b, "%s on non-numeric value", b.Op)
	}
	if c, ok := l.x.ConstOf(); ok {
		// Left side decided: either fold the whole expression or the
		// result is just the right side.
		if (b.Op == token.LAND && c == 0) || (b.Op == token.LOR && c != 0) {
			return numVal(Konst(boolTo(b.Op == token.LOR))), nil
		}
		r, err := f.evalExpr(b.Y)
		if err != nil {
			return nil, err
		}
		if r.x == nil {
			return nil, f.errAt(b, "%s on non-numeric value", b.Op)
		}
		return numVal(r.x), nil
	}
	res := f.lo.newReg()
	var shortPatch int
	if b.Op == token.LAND {
		shortPatch = f.lo.emitCondBranch(l.x) // false -> short
	} else {
		shortPatch = f.lo.emitCondBranch(Not(l.x)) // true -> short
	}
	r, err := f.evalExpr(b.Y)
	if err != nil {
		return nil, err
	}
	if r.x == nil {
		return nil, f.errAt(b, "%s on non-numeric value", b.Op)
	}
	f.lo.emit(Instr{Op: OpLocal, Dst: res, Val: r.x})
	over := f.lo.emitJump()
	f.lo.patch([]int{shortPatch}, len(f.lo.out))
	f.lo.emit(Instr{Op: OpLocal, Dst: res, Val: Konst(boolTo(b.Op == token.LOR))})
	f.lo.patch([]int{over}, len(f.lo.out))
	return numVal(RegRef(res)), nil
}

func (f *frame) evalComposite(cl *ast.CompositeLit) (*absVal, error) {
	tv, ok := f.info().Types[cl]
	if !ok {
		return nil, f.errAt(cl, "untyped composite literal")
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil, f.errAt(cl, "unsupported composite literal type %s", tv.Type)
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, f.errAt(cl, "non-struct composite literal")
	}
	o := newObject(named.Obj().Name(), named.Obj().Name()+"{}", nil)
	// Zero-initialize numeric fields so selectors on unset fields fold.
	for i := 0; i < st.NumFields(); i++ {
		fl := st.Field(i)
		if b, isBasic := fl.Type().Underlying().(*types.Basic); isBasic && b.Info()&(types.IsInteger|types.IsBoolean) != 0 {
			o.fields[fl.Name()] = numVal(Konst(0))
		}
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v, err := f.evalExpr(kv.Value)
			if err != nil {
				return nil, err
			}
			o.fields[kv.Key.(*ast.Ident).Name] = v
		} else {
			v, err := f.evalExpr(elt)
			if err != nil {
				return nil, err
			}
			if i >= st.NumFields() {
				return nil, f.errAt(cl, "too many positional fields")
			}
			o.fields[st.Field(i).Name()] = v
		}
	}
	return objVal(o), nil
}
