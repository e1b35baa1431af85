// Package interleave is a bounded model checker for the SpRWL
// synchronization protocol. It checks the correctness claims the paper
// and DESIGN argue in prose: writer/reader mutual exclusion of the
// flag-then-check vs lock-then-drain handshake, absence of lost wakeups
// in the store-then-wake vs register-then-check parking protocol (DESIGN
// §10), and BRAVO's writer-side revocation visibility.
//
// The pipeline has three layers:
//
//   - An extraction layer (extract.go) compiles //sprwl:model-annotated
//     functions — the real internal/core reader/writer paths, the real
//     internal/park Park/Wake, the real internal/readers backends — into
//     the atomic-step programs defined in this file, over the
//     type-checked packages internal/analysis/driver loads. Every atomic
//     load/store/CAS/RMW on simulated shared memory becomes one step;
//     straight-line thread-local computation coalesces into the preceding
//     step.
//
//   - A small-step machine (machine.go) executes N such programs over one
//     shared store under sequential consistency, with real blocking
//     semantics for the mutex/condvar pair inside park.Table. SC is the
//     whole memory model the protocol needs: its shared words are Go
//     atomics (sequentially consistent), and its only plain cell, a park
//     shard's gen, is touched only under the shard mutex, so the
//     data-race-free program behaves as if sequentially consistent
//     (DRF-SC). TestOnlyShardGenIsPlain guards that precondition.
//
//   - An explorer (explore.go) enumerates all interleavings with
//     sleep-set partial-order reduction and visited-state hashing,
//     checking safety (mutual exclusion, torn section bodies, assertion
//     failures) and bounded liveness (no stuck state other than the
//     accepted all-halted terminals — a parked waiter whose wake was lost,
//     or a spin-only wait no other thread's write can end, shows up as
//     exactly such a stuck state), and reconstructs a
//     minimized counterexample trace on violation.
//
// Shipped protocol configurations live in configs.go; the seeded bugs
// the checker must catch are patches in scripts/killmatrix (DESIGN §8).
// cmd/sprwl-model is the command-line front end.
package interleave

import (
	"fmt"
	"sort"
	"strings"
)

// Reg indexes a thread-local register. Registers hold uint64 values;
// signed arithmetic is performed on the two's-complement interpretation.
type Reg int

// BinOp enumerates the pure binary operators expression trees may use.
type BinOp uint8

// Binary operators. Comparison operators yield 0 or 1.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// ExprKind discriminates expression nodes.
type ExprKind uint8

// Expression node kinds.
const (
	EConst ExprKind = iota
	EReg
	EBin
	ENot
)

// Expr is a pure (side-effect-free) expression over constants and
// thread-local registers. Shared-memory reads never appear inside an Expr;
// extraction materializes them as explicit OpLoad steps first, so every
// interleaving point is a step boundary.
type Expr struct {
	Kind   ExprKind
	K      uint64 // EConst
	Reg    Reg    // EReg
	Op     BinOp  // EBin
	L, R   *Expr  // EBin; L only for ENot
	Signed bool   // EBin comparisons: compare as int64
}

// Konst builds a constant expression.
func Konst(v uint64) *Expr { return &Expr{Kind: EConst, K: v} }

// RegRef builds a register reference.
func RegRef(r Reg) *Expr { return &Expr{Kind: EReg, Reg: r} }

// Bin builds a binary expression, constant-folding when both operands are
// constants (which is what erases configuration-dependent branches from
// extracted programs).
func Bin(op BinOp, signed bool, l, r *Expr) *Expr {
	if l.Kind == EConst && r.Kind == EConst {
		return Konst(applyBin(op, signed, l.K, r.K))
	}
	return &Expr{Kind: EBin, Op: op, L: l, R: r, Signed: signed}
}

// Not builds a logical negation (0 -> 1, nonzero -> 0).
func Not(x *Expr) *Expr {
	if x.Kind == EConst {
		if x.K == 0 {
			return Konst(1)
		}
		return Konst(0)
	}
	return &Expr{Kind: ENot, L: x}
}

func applyBin(op BinOp, signed bool, a, b uint64) uint64 {
	bool2u := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpEq:
		return bool2u(a == b)
	case OpNe:
		return bool2u(a != b)
	case OpLt:
		if signed {
			return bool2u(int64(a) < int64(b))
		}
		return bool2u(a < b)
	case OpLe:
		if signed {
			return bool2u(int64(a) <= int64(b))
		}
		return bool2u(a <= b)
	case OpGt:
		if signed {
			return bool2u(int64(a) > int64(b))
		}
		return bool2u(a > b)
	case OpGe:
		if signed {
			return bool2u(int64(a) >= int64(b))
		}
		return bool2u(a >= b)
	}
	panic("interleave: unknown binop")
}

// Eval evaluates e over a thread's register file.
func (e *Expr) Eval(regs []uint64) uint64 {
	switch e.Kind {
	case EConst:
		return e.K
	case EReg:
		return regs[e.Reg]
	case EBin:
		return applyBin(e.Op, e.Signed, e.L.Eval(regs), e.R.Eval(regs))
	case ENot:
		if e.L.Eval(regs) == 0 {
			return 1
		}
		return 0
	}
	panic("interleave: unknown expr kind")
}

// ConstOf reports e's value when it is a constant.
func (e *Expr) ConstOf() (uint64, bool) {
	if e != nil && e.Kind == EConst {
		return e.K, true
	}
	return 0, false
}

// String renders e for traces and goldens.
func (e *Expr) String() string {
	switch e.Kind {
	case EConst:
		return fmt.Sprintf("%d", e.K)
	case EReg:
		return fmt.Sprintf("r%d", e.Reg)
	case EBin:
		return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
	case ENot:
		return fmt.Sprintf("!%s", e.L)
	}
	return "?"
}

// OpKind enumerates instruction kinds. Kinds below OpLoad are invisible:
// they are thread-local and coalesce into the enclosing visible step.
// Everything from OpLoad on is one atomic step the explorer interleaves.
type OpKind uint8

// Instruction kinds.
const (
	// OpLocal assigns Dst := Val. Invisible.
	OpLocal OpKind = iota
	// OpJump transfers control to A. Invisible.
	OpJump
	// OpBranch transfers control to A when Cond is nonzero, else to B.
	// Invisible (conditions only read registers).
	OpBranch
	// OpAssert checks that Cond is nonzero; a zero is a safety violation
	// (used for the torn-read check inside reader section bodies).
	// Invisible: it is checked as part of the step that computed its
	// operands.
	OpAssert
	// OpTrap marks statically-lowered code the configuration claims is
	// unreachable (an unbound backend arm of a tracking-mode switch).
	// Executing it is a model error, so a wrong claim cannot silently
	// underapproximate the protocol. Invisible.
	OpTrap

	// OpLoad reads shared memory: Dst := mem[Loc].
	OpLoad
	// OpStore writes shared memory: mem[Loc] := Val.
	OpStore
	// OpRMWAdd is an atomic fetch-add: Dst := mem[Loc]+Val, stored back.
	OpRMWAdd
	// OpCAS is an atomic compare-and-swap: Dst := 1 and mem[Loc] := Val
	// when mem[Loc] == Old, else Dst := 0.
	OpCAS

	// OpMutexLock acquires the sync.Mutex modeled at cell Loc; the
	// thread blocks while the cell is nonzero.
	OpMutexLock
	// OpMutexUnlock releases the mutex at cell Loc.
	OpMutexUnlock
	// OpCondWait models sync.Cond.Wait on the condvar identified by cell
	// Loc (which is also its associated mutex cell): atomically release
	// the mutex and sleep until a broadcast, then reacquire.
	OpCondWait
	// OpCondBroadcast wakes every thread sleeping on cell Loc.
	OpCondBroadcast

	// OpChoice is a nondeterministic branch to A or B. It abstracts
	// scheduling heuristics that do not touch shared state — the
	// spin-vs-park decision inside park.Waiter.Pause — so the checker
	// covers every possible outcome of the heuristic.
	OpChoice

	// OpSpin is one pause of a wait loop that can only spin
	// (park.Waiter.Pause with no parker). It is enabled only after
	// another thread changed a shared cell since this thread's previous
	// OpSpin: the loop between two pauses only re-reads shared memory,
	// so with nothing changed the re-check would repeat itself forever.
	// A spinner nothing can release is therefore blocked, and a stuck
	// state shows it instead of an endless loop the visited-state table
	// silently folds away.
	OpSpin

	// OpCsEnter/OpCsExit bracket a critical-section body; Val is the
	// role (0 = reader, 1 = writer). The machine maintains live
	// reader/writer counts from these markers and flags any state with a
	// writer and another active section as a mutual-exclusion violation.
	OpCsEnter
	OpCsExit

	// OpHalt terminates the thread. A state where every thread halted is
	// an accepted terminal.
	OpHalt
)

var opNames = [...]string{
	OpLocal: "local", OpJump: "jump", OpBranch: "branch", OpAssert: "assert",
	OpTrap: "trap", OpLoad: "load", OpStore: "store", OpRMWAdd: "rmw-add",
	OpCAS: "cas", OpMutexLock: "mutex-lock", OpMutexUnlock: "mutex-unlock",
	OpCondWait: "cond-wait", OpCondBroadcast: "cond-broadcast",
	OpChoice: "choice", OpSpin: "spin", OpCsEnter: "cs-enter", OpCsExit: "cs-exit", OpHalt: "halt",
}

// Name returns the step kind's display name.
func (k OpKind) Name() string { return opNames[k] }

// Visible reports whether the kind is an interleaving point (one atomic
// step) rather than coalesced thread-local work.
func (k OpKind) Visible() bool { return k >= OpLoad }

// Instr is one instruction of a thread program.
type Instr struct {
	Op   OpKind
	Dst  Reg
	Loc  *Expr // shared cell address (visible kinds)
	Val  *Expr // store value / RMW delta / CAS new / cs role
	Old  *Expr // CAS expected
	Cond *Expr // branch / assert condition
	A, B int   // jump / branch / choice targets

	// Atomic marks a load or store routed through env.Env or
	// sync/atomic. A plain one (Atomic false) touches a park shard's gen
	// under the shard mutex; TestOnlyShardGenIsPlain keeps it the only
	// kind, which is what lets the machine run SC alone.
	Atomic bool

	// Site is the inline path that produced the instruction, e.g.
	// "Write>writeFallback>lockGL>Lock".
	Site string
	// Pos is the module-relative source position, e.g.
	// "internal/park/park.go:171".
	Pos string
	// Note is an optional human-readable label for traces.
	Note string
}

// Prog is one thread's compiled program.
type Prog struct {
	Name  string
	Code  []Instr
	NRegs int
}

// VisibleSteps counts the interleaving points in the program — the number
// the extractor golden tests pin so refactors cannot silently shrink the
// modeled surface.
func (p *Prog) VisibleSteps() int {
	n := 0
	for i := range p.Code {
		if p.Code[i].Op.Visible() {
			n++
		}
	}
	return n
}

// Footprint returns the sorted set of named shared cells the program
// addresses statically (constant Loc operands), plus a "dyn:<site>" entry
// per step whose cell is computed at run time. Golden tests pin it
// alongside VisibleSteps.
func (p *Prog) Footprint(names func(uint64) string) []string {
	set := map[string]bool{}
	for i := range p.Code {
		in := &p.Code[i]
		if !in.Op.Visible() || in.Loc == nil {
			continue
		}
		if c, ok := in.Loc.ConstOf(); ok {
			set[names(c)] = true
		} else {
			set["dyn:"+in.Site] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// String renders one instruction for traces and goldens.
func (in *Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.Name())
	if in.Loc != nil {
		fmt.Fprintf(&b, " [%s]", in.Loc)
	}
	switch in.Op {
	case OpLocal:
		fmt.Fprintf(&b, " r%d=%s", in.Dst, in.Val)
	case OpLoad:
		fmt.Fprintf(&b, " ->r%d", in.Dst)
	case OpStore:
		fmt.Fprintf(&b, " =%s", in.Val)
	case OpRMWAdd:
		fmt.Fprintf(&b, " +=%s ->r%d", in.Val, in.Dst)
	case OpCAS:
		fmt.Fprintf(&b, " %s->%s ->r%d", in.Old, in.Val, in.Dst)
	case OpBranch:
		fmt.Fprintf(&b, " %s ?%d:%d", in.Cond, in.A, in.B)
	case OpJump:
		fmt.Fprintf(&b, " %d", in.A)
	case OpChoice:
		fmt.Fprintf(&b, " %d|%d", in.A, in.B)
	case OpAssert:
		fmt.Fprintf(&b, " %s", in.Cond)
	case OpCsEnter, OpCsExit:
		fmt.Fprintf(&b, " role=%s", in.Val)
	}
	if in.Note != "" {
		fmt.Fprintf(&b, " ; %s", in.Note)
	}
	return b.String()
}

// FinalKind discriminates accepted-terminal predicates.
type FinalKind uint8

// Accepted-terminal predicate kinds.
const (
	// FinalZero requires every listed cell to read zero in an accepted
	// terminal (released locks, retracted reader flags, empty waiter
	// counts).
	FinalZero FinalKind = iota
	// FinalAllEqual requires every listed cell to hold one common value
	// (the two halves of the section body were not torn apart).
	FinalAllEqual
)

// Final is one predicate every accepted (all-threads-halted) terminal
// state must satisfy.
type Final struct {
	Kind  FinalKind
	Cells []uint64
	Desc  string
}

// ThreadSpec names one thread of a model.
type ThreadSpec struct {
	Name string
	Prog *Prog
}

// Model is a closed system: N thread programs over one shared store.
type Model struct {
	Name    string
	Threads []ThreadSpec
	// MemSize is the shared store size in cells.
	MemSize int
	// Init seeds non-zero initial cell values.
	Init map[uint64]uint64
	// CellNames labels cells for trace rendering; unlisted cells render
	// numerically. Populated by the config builders.
	CellNames map[uint64]string
	// Finals are the accepted-terminal predicates.
	Finals []Final
}

// CellName renders a cell address.
func (m *Model) CellName(c uint64) string {
	if n, ok := m.CellNames[c]; ok {
		return n
	}
	return fmt.Sprintf("cell%d", c)
}
