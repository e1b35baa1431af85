package interleave

import "fmt"

// tstatus is a thread's scheduling state.
type tstatus uint8

const (
	tsRun tstatus = iota
	// tsSleep: inside OpCondWait, mutex released, waiting for broadcast.
	tsSleep
	// tsReacq: broadcast received, waiting to reacquire the mutex.
	tsReacq
	tsHalted
)

type threadState struct {
	pc     int
	status tstatus
	wait   uint64 // condvar/mutex cell while tsSleep/tsReacq
	sect   int8   // -1 outside, 0 reader section, 1 writer section
	regs   []uint64
	// dirty: another thread changed a shared cell since this thread's
	// last OpSpin (tracked only for threads whose program spins).
	dirty bool
}

// machState is one explored state. Threads are always normalized: pc
// parked on a visible instruction (or the thread halted/blocked).
type machState struct {
	mem []uint64
	thr []threadState
}

func (s *machState) clone() *machState {
	n := &machState{
		mem: append([]uint64(nil), s.mem...),
		thr: make([]threadState, len(s.thr)),
	}
	for i := range s.thr {
		t := s.thr[i]
		t.regs = append([]uint64(nil), t.regs...)
		n.thr[i] = t
	}
	return n
}

// hash returns a 128-bit FNV-1a fingerprint of the state.
func (s *machState) hash() [2]uint64 {
	const (
		off1   = 14695981039346656037
		off2   = 0x9e3779b97f4a7c15
		prime1 = 1099511628211
		prime2 = 0x100000001b3 ^ 0x5bd1e995
	)
	h1, h2 := uint64(off1), uint64(off2)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			b := v & 0xff
			v >>= 8
			h1 = (h1 ^ b) * prime1
			h2 = (h2 ^ b) * prime2
		}
	}
	for _, v := range s.mem {
		mix(v)
	}
	for i := range s.thr {
		t := &s.thr[i]
		mix(uint64(t.pc)<<17 | boolTo(t.dirty)<<16 | uint64(t.status)<<8 | uint64(uint8(t.sect)))
		mix(t.wait)
		for _, r := range t.regs {
			mix(r)
		}
	}
	return [2]uint64{h1, h2}
}

// tkind discriminates transition variants.
type tkind uint8

const (
	// tStep executes the visible instruction at the thread's pc.
	tStep tkind = iota
	// tChoiceA / tChoiceB take the two arms of an OpChoice.
	tChoiceA
	tChoiceB
	// tReacq reacquires the condvar mutex after a broadcast.
	tReacq
)

// transition identifies one enabled step of one thread.
type transition struct {
	thread int
	kind   tkind
}

// id packs a transition for sleep-set bookkeeping.
func (t transition) id() uint32 { return uint32(t.thread)<<3 | uint32(t.kind) }

// access is one shared-memory effect of a transition, for the dependence
// relation of the partial-order reduction.
type access struct {
	addr  uint64
	write bool
}

// csCell is the pseudo-cell all OpCsEnter/OpCsExit steps write: section
// bracketing is globally ordered so the mutual-exclusion check is exact.
const csCell = ^uint64(0)

// anyCell is the pseudo-cell an OpSpin reads: it stands for every shared
// cell, since a write to any of them can enable the spin.
const anyCell = csCell - 1

// ViolationKind classifies checker findings.
type ViolationKind string

// Violation kinds.
const (
	ViolAssert   ViolationKind = "assert" // torn section / explicit assert
	ViolTrap     ViolationKind = "trap"   // statically-unreachable code executed
	ViolMutex    ViolationKind = "mutual-exclusion"
	ViolLostWake ViolationKind = "lost-wakeup" // stuck with a sleeping thread
	ViolDeadlock ViolationKind = "deadlock"    // stuck with no sleeping thread
	ViolFinal    ViolationKind = "final-state" // accepted-terminal predicate failed
	ViolModel    ViolationKind = "model-error" // extraction/machine invariant broke
)

// stepViol is a violation raised while applying one transition.
type stepViol struct {
	kind ViolationKind
	msg  string
}

// machine executes a Model under sequential consistency: every step
// acts on the one shared store at once.
type machine struct {
	m *Model
	// spins marks the threads whose program contains an OpSpin: only
	// their dirty bits are ever read, so only they get one.
	spins []bool
}

func newMachine(m *Model) *machine {
	spins := make([]bool, len(m.Threads))
	for i, th := range m.Threads {
		for _, in := range th.Prog.Code {
			spins[i] = spins[i] || in.Op == OpSpin
		}
	}
	return &machine{m: m, spins: spins}
}

func (mc *machine) initState() (*machState, *stepViol) {
	s := &machState{
		mem: make([]uint64, mc.m.MemSize),
		thr: make([]threadState, len(mc.m.Threads)),
	}
	for a, v := range mc.m.Init {
		s.mem[a] = v
	}
	for i := range mc.m.Threads {
		s.thr[i] = threadState{sect: -1, regs: make([]uint64, mc.m.Threads[i].Prog.NRegs)}
		if v := mc.normalize(s, i); v != nil {
			return s, v
		}
	}
	return s, nil
}

// normalize runs thread i's invisible instructions until its pc parks on
// a visible instruction. Invisible loops are a modeling error: a loop
// with no shared access can never terminate differently in another
// interleaving.
func (mc *machine) normalize(s *machState, i int) *stepViol {
	t := &s.thr[i]
	code := mc.m.Threads[i].Prog.Code
	for steps := 0; ; steps++ {
		if steps > 100000 {
			return &stepViol{ViolModel, fmt.Sprintf("thread %s: invisible instruction loop at pc %d", mc.m.Threads[i].Name, t.pc)}
		}
		if t.pc >= len(code) {
			return &stepViol{ViolModel, fmt.Sprintf("thread %s: pc %d past end (missing halt)", mc.m.Threads[i].Name, t.pc)}
		}
		in := &code[t.pc]
		if in.Op.Visible() {
			return nil
		}
		switch in.Op {
		case OpLocal:
			t.regs[in.Dst] = in.Val.Eval(t.regs)
			t.pc++
		case OpJump:
			t.pc = in.A
		case OpBranch:
			if in.Cond.Eval(t.regs) != 0 {
				t.pc = in.A
			} else {
				t.pc = in.B
			}
		case OpAssert:
			if in.Cond.Eval(t.regs) == 0 {
				note := in.Note
				if note == "" {
					note = "assertion failed"
				}
				return &stepViol{ViolAssert, fmt.Sprintf("%s (%s, %s)", note, in.Site, in.Pos)}
			}
			t.pc++
		case OpTrap:
			return &stepViol{ViolTrap, fmt.Sprintf("unreachable-by-configuration code executed: %s (%s, %s)", in.Note, in.Site, in.Pos)}
		default:
			return &stepViol{ViolModel, fmt.Sprintf("invisible op %s unhandled", in.Op.Name())}
		}
	}
}

// write stores val to memory on thread i's behalf. A change of value
// marks every other spinning thread dirty, enabling its next OpSpin.
func (mc *machine) write(s *machState, i int, addr, val uint64) {
	if addr >= uint64(len(s.mem)) || s.mem[addr] == val {
		return
	}
	s.mem[addr] = val
	for j, spins := range mc.spins {
		if spins && j != i {
			s.thr[j].dirty = true
		}
	}
}

// enabled returns every transition schedulable from s.
func (mc *machine) enabled(s *machState) []transition {
	var out []transition
	for i := range s.thr {
		t := &s.thr[i]
		switch t.status {
		case tsHalted:
		case tsSleep:
			// Only a broadcast can move it.
		case tsReacq:
			if t.wait < uint64(len(s.mem)) && s.mem[t.wait] == 0 {
				out = append(out, transition{i, tReacq})
			}
		case tsRun:
			in := &mc.m.Threads[i].Prog.Code[t.pc]
			switch in.Op {
			case OpChoice:
				out = append(out, transition{i, tChoiceA}, transition{i, tChoiceB})
			case OpMutexLock:
				if addr := in.Loc.Eval(t.regs); addr < uint64(len(s.mem)) && s.mem[addr] == 0 {
					out = append(out, transition{i, tStep})
				}
			case OpSpin:
				if t.dirty {
					out = append(out, transition{i, tStep})
				}
			default:
				out = append(out, transition{i, tStep})
			}
		}
	}
	return out
}

// footprint computes the shared cells tr touches from s, without applying
// it. Address expressions are side-effect-free, so this is exact.
func (mc *machine) footprint(s *machState, tr transition) []access {
	t := &s.thr[tr.thread]
	switch tr.kind {
	case tChoiceA, tChoiceB:
		return nil
	case tReacq:
		return []access{{t.wait, true}}
	}
	in := &mc.m.Threads[tr.thread].Prog.Code[t.pc]
	switch in.Op {
	case OpLoad:
		return []access{{in.Loc.Eval(t.regs), false}}
	case OpStore, OpMutexLock, OpMutexUnlock, OpCondWait, OpCondBroadcast:
		return []access{{in.Loc.Eval(t.regs), true}}
	case OpRMWAdd, OpCAS:
		a := in.Loc.Eval(t.regs)
		return []access{{a, false}, {a, true}}
	case OpCsEnter, OpCsExit:
		return []access{{csCell, true}}
	case OpSpin:
		return []access{{anyCell, false}}
	}
	return nil
}

// dependent reports whether two transitions' footprints conflict (share a
// cell with at least one write). An OpSpin's anyCell read conflicts with
// every write to shared memory.
func dependent(a, b []access) bool {
	for _, x := range a {
		for _, y := range b {
			if x.addr == y.addr && (x.write || y.write) {
				return true
			}
			if (x.addr == anyCell && y.write && y.addr != csCell) ||
				(y.addr == anyCell && x.write && x.addr != csCell) {
				return true
			}
		}
	}
	return false
}

// TraceStep is one entry of a counterexample trace.
type TraceStep struct {
	Thread int    `json:"thread"`
	Name   string `json:"name"`
	PC     int    `json:"pc"`
	Desc   string `json:"desc"`
	Site   string `json:"site,omitempty"`
	Pos    string `json:"pos,omitempty"`
}

// apply executes tr on a copy of s, returning the successor, any
// violation the step (or the invisible suffix it enables) raised, and the
// rendered trace step.
func (mc *machine) apply(s *machState, tr transition) (*machState, *stepViol, TraceStep) {
	n := s.clone()
	i := tr.thread
	t := &n.thr[i]
	name := mc.m.Threads[i].Name
	ts := TraceStep{Thread: i, Name: name, PC: t.pc}

	store := func(addr, val uint64) { mc.write(n, i, addr, val) }

	if tr.kind == tReacq {
		store(t.wait, 1)
		t.status = tsRun
		t.pc++ // past the OpCondWait
		in := &mc.m.Threads[i].Prog.Code[t.pc-1]
		ts.Desc = fmt.Sprintf("reacquire %s after broadcast", mc.m.CellName(t.wait))
		ts.Site, ts.Pos = in.Site, in.Pos
		v := mc.normalize(n, i)
		return n, v, ts
	}

	in := &mc.m.Threads[i].Prog.Code[t.pc]
	ts.Site, ts.Pos = in.Site, in.Pos

	switch tr.kind {
	case tChoiceA:
		t.pc = in.A
		ts.Desc = "choice: " + noteOr(in, "A")
		v := mc.normalize(n, i)
		return n, v, ts
	case tChoiceB:
		t.pc = in.B
		ts.Desc = "choice: skip " + noteOr(in, "B")
		v := mc.normalize(n, i)
		return n, v, ts
	}

	var viol *stepViol
	switch in.Op {
	case OpLoad:
		addr := in.Loc.Eval(t.regs)
		var val uint64
		if addr < uint64(len(n.mem)) {
			val = n.mem[addr]
		}
		t.regs[in.Dst] = val
		ts.Desc = fmt.Sprintf("load %s -> %d", mc.m.CellName(addr), val)
	case OpStore:
		addr := in.Loc.Eval(t.regs)
		val := in.Val.Eval(t.regs)
		store(addr, val)
		ts.Desc = fmt.Sprintf("store %s = %d", mc.m.CellName(addr), val)
	case OpRMWAdd:
		addr := in.Loc.Eval(t.regs)
		d := in.Val.Eval(t.regs)
		var nv uint64
		if addr < uint64(len(n.mem)) {
			nv = n.mem[addr] + d
			store(addr, nv)
		}
		t.regs[in.Dst] = nv
		ts.Desc = fmt.Sprintf("rmw-add %s += %d -> %d", mc.m.CellName(addr), int64(d), nv)
	case OpCAS:
		addr := in.Loc.Eval(t.regs)
		old := in.Old.Eval(t.regs)
		nv := in.Val.Eval(t.regs)
		ok := uint64(0)
		if addr < uint64(len(n.mem)) && n.mem[addr] == old {
			store(addr, nv)
			ok = 1
		}
		t.regs[in.Dst] = ok
		ts.Desc = fmt.Sprintf("cas %s %d->%d: %d", mc.m.CellName(addr), old, nv, ok)
	case OpMutexLock:
		addr := in.Loc.Eval(t.regs)
		store(addr, 1)
		ts.Desc = "mutex-lock " + mc.m.CellName(addr)
	case OpMutexUnlock:
		addr := in.Loc.Eval(t.regs)
		store(addr, 0)
		ts.Desc = "mutex-unlock " + mc.m.CellName(addr)
	case OpCondWait:
		addr := in.Loc.Eval(t.regs)
		store(addr, 0) // release the associated mutex
		t.status = tsSleep
		t.wait = addr
		ts.Desc = "cond-wait: sleep on " + mc.m.CellName(addr)
		return n, nil, ts // pc stays at the wait until reacquired
	case OpCondBroadcast:
		addr := in.Loc.Eval(t.regs)
		woken := 0
		for j := range n.thr {
			if n.thr[j].status == tsSleep && n.thr[j].wait == addr {
				n.thr[j].status = tsReacq
				woken++
			}
		}
		ts.Desc = fmt.Sprintf("cond-broadcast %s: woke %d", mc.m.CellName(addr), woken)
	case OpCsEnter:
		role := in.Val.Eval(t.regs)
		for j := range n.thr {
			if j == i || n.thr[j].sect < 0 {
				continue
			}
			if role == 1 || n.thr[j].sect == 1 {
				viol = &stepViol{ViolMutex, fmt.Sprintf(
					"%s entered a %s section while %s holds a %s section",
					name, roleName(role), mc.m.Threads[j].Name, roleName(uint64(n.thr[j].sect)))}
			}
		}
		t.sect = int8(role)
		ts.Desc = "enter " + roleName(role) + " section"
	case OpCsExit:
		t.sect = -1
		ts.Desc = "exit " + roleName(in.Val.Eval(t.regs)) + " section"
	case OpSpin:
		t.dirty = false
		ts.Desc = "spin: memory changed, re-check"
	case OpHalt:
		t.status = tsHalted
		ts.Desc = "halt"
		return n, viol, ts
	default:
		return n, &stepViol{ViolModel, "unexpected visible op " + in.Op.Name()}, ts
	}
	t.pc++
	if viol == nil {
		viol = mc.normalize(n, i)
	} else {
		mc.normalize(n, i)
	}
	return n, viol, ts
}

func noteOr(in *Instr, def string) string {
	if in.Note != "" {
		return in.Note
	}
	return def
}

func roleName(r uint64) string {
	if r == 1 {
		return "writer"
	}
	return "reader"
}

// classifyStuck describes a state with no enabled transition: a sleeping
// thread means its wakeup was lost (also when the thread that should wake
// it spins on a word nobody will change); otherwise it is a deadlock.
func (mc *machine) classifyStuck(s *machState) *stepViol {
	var sleepers, blocked []string
	for i := range s.thr {
		t := &s.thr[i]
		switch t.status {
		case tsSleep:
			sleepers = append(sleepers, fmt.Sprintf("%s parked on %s", mc.m.Threads[i].Name, mc.m.CellName(t.wait)))
		case tsHalted:
		default:
			name := mc.m.Threads[i].Name
			if in := &mc.m.Threads[i].Prog.Code[t.pc]; t.status == tsRun && in.Op == OpSpin {
				name += " spinning at " + in.Pos
			}
			blocked = append(blocked, name)
		}
	}
	if len(sleepers) > 0 {
		return &stepViol{ViolLostWake, fmt.Sprintf("no runnable thread: %v (blocked: %v)", sleepers, blocked)}
	}
	return &stepViol{ViolDeadlock, fmt.Sprintf("no runnable thread; blocked: %v", blocked)}
}

// checkTerminal validates an all-halted state against the model's
// accepted-terminal predicates.
func (mc *machine) checkTerminal(s *machState) *stepViol {
	for _, f := range mc.m.Finals {
		switch f.Kind {
		case FinalZero:
			for _, c := range f.Cells {
				if s.mem[c] != 0 {
					return &stepViol{ViolFinal, fmt.Sprintf("%s: %s = %d at termination, want 0", f.Desc, mc.m.CellName(c), s.mem[c])}
				}
			}
		case FinalAllEqual:
			if len(f.Cells) == 0 {
				continue
			}
			v0 := s.mem[f.Cells[0]]
			for _, c := range f.Cells[1:] {
				if s.mem[c] != v0 {
					return &stepViol{ViolFinal, fmt.Sprintf("%s: %s = %d but %s = %d", f.Desc, mc.m.CellName(f.Cells[0]), v0, mc.m.CellName(c), s.mem[c])}
				}
			}
		}
	}
	return nil
}
