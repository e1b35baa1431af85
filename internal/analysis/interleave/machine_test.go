package interleave

import (
	"strings"
	"testing"
)

// TestSpinWaitsForChange pins OpSpin: a spin loop ends when another thread
// changes the word it re-checks, and a spinner no write can release is a
// stuck state rather than a loop the visited-state table folds away. A
// store of the value already there changes nothing, so it cannot release
// the spinner either.
func TestSpinWaitsForChange(t *testing.T) {
	const x, y = 0, 1
	for _, tc := range []struct {
		name      string
		cell      uint64
		val       uint64
		wantStuck bool
	}{
		{"store-x", x, 1, false},
		{"store-other-cell", y, 1, true},
		{"store-same-value", x, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spinner := &Prog{Name: "S", NRegs: 1, Code: []Instr{
				{Op: OpLoad, Dst: 0, Loc: Konst(x), Atomic: true},
				{Op: OpBranch, Cond: RegRef(0), A: 4, B: 2},
				{Op: OpSpin},
				{Op: OpJump, A: 0},
				{Op: OpHalt},
			}}
			setter := &Prog{Name: "T", Code: []Instr{
				{Op: OpStore, Loc: Konst(tc.cell), Val: Konst(tc.val)},
				{Op: OpHalt},
			}}
			m := &Model{
				Name:    "spin",
				Threads: []ThreadSpec{{"S", spinner}, {"T", setter}},
				MemSize: 2,
			}
			res := RunModel(m, ExploreOpts{})
			if !res.Complete {
				t.Fatal("exploration incomplete")
			}
			switch v := res.Violation; {
			case !tc.wantStuck && v != nil:
				t.Errorf("%s\n%s", v.Msg, RenderTrace(v))
			case tc.wantStuck && v == nil:
				t.Error("spinner released without a change to its word")
			case tc.wantStuck && (v.Kind != ViolDeadlock || !strings.Contains(v.Msg, "S spinning")):
				t.Errorf("got %s %q, want a deadlock naming the spinner", v.Kind, v.Msg)
			}
		})
	}
}

// TestLostWakeTraceMinimized pins the counterexample path: a waker that
// stores the phase but never broadcasts leaves the waiter parked, and the
// reported schedule is the shortest one. A third thread picks between
// three independent stores and halting at once; the DFS takes the busy
// arm first, so its witness has 10 steps, and the minimizer must cut it
// to the 7 every lost wakeup here needs: the waiter's lock, phase load
// and cond-wait, the waker's phase store and halt, the idle thread's
// choice and halt.
func TestLostWakeTraceMinimized(t *testing.T) {
	const mu, phase, s0 = 0, 1, 2
	waiter := &Prog{Name: "waiter", NRegs: 1, Code: []Instr{
		{Op: OpMutexLock, Loc: Konst(mu)},
		{Op: OpLoad, Dst: 0, Loc: Konst(phase), Atomic: true},
		{Op: OpBranch, Cond: RegRef(0), A: 5, B: 3},
		{Op: OpCondWait, Loc: Konst(mu)},
		{Op: OpJump, A: 1},
		{Op: OpMutexUnlock, Loc: Konst(mu)},
		{Op: OpHalt},
	}}
	waker := &Prog{Name: "waker", Code: []Instr{
		{Op: OpStore, Loc: Konst(phase), Val: Konst(1), Atomic: true},
		{Op: OpHalt}, // no cond-broadcast: the wake is lost
	}}
	m := &Model{
		Name:    "lost-wake",
		Threads: []ThreadSpec{{"waiter", waiter}, {"waker", waker}, {"idle", busyIdle(s0)}},
		MemSize: 5,
	}
	res := RunModel(m, ExploreOpts{})
	v := res.Violation
	if v == nil {
		t.Fatal("a waker that never broadcasts verified clean")
	}
	if v.Kind != ViolLostWake {
		t.Fatalf("kind = %s, want %s: %s", v.Kind, ViolLostWake, v.Msg)
	}
	if !v.Minimized {
		t.Error("counterexample was not minimized")
	}
	if len(v.Trace) != 7 {
		t.Errorf("trace has %d steps, want the shortest, 7:\n%s", len(v.Trace), RenderTrace(v))
	}
	if !strings.Contains(v.Msg, "waiter parked on") {
		t.Errorf("message %q does not name the parked waiter", v.Msg)
	}
}

// busyIdle picks between three independent stores to cells s0..s0+2 and
// halting at once. The DFS takes the busy arm first, so next to it the
// first witness the search finds is longer than the shortest one.
func busyIdle(s0 uint64) *Prog {
	return &Prog{Name: "idle", Code: []Instr{
		{Op: OpChoice, A: 1, B: 4},
		{Op: OpStore, Loc: Konst(s0), Val: Konst(1), Atomic: true},
		{Op: OpStore, Loc: Konst(s0 + 1), Val: Konst(1), Atomic: true},
		{Op: OpStore, Loc: Konst(s0 + 2), Val: Konst(1), Atomic: true},
		{Op: OpHalt},
	}}
}

// TestCounterexampleKinds pins the verdict path for each kind of
// violation a hand-built model can reach besides the lost wakeup: the
// checker reports the right kind, with a message naming the fault, and a
// minimized schedule of the known shortest length. Each model runs next
// to busyIdle, so the minimizer has a longer DFS witness to cut. A
// stuck or final-state witness also needs the idle thread's choice and
// halt; a transition's witness does not.
func TestCounterexampleKinds(t *testing.T) {
	const pad = 8 // busyIdle's cells; every model below uses cells < pad
	for _, tc := range []struct {
		name    string
		threads []ThreadSpec
		init    map[uint64]uint64
		finals  []Final
		kind    ViolationKind
		msg     string
		steps   int
	}{
		{
			// The reader checks the lock before it publishes its flag
			// (kill row W2's order): both checks can pass. Shortest: the
			// three visible steps of each thread, the reader's lock load
			// before the writer's lock store and the writer's flag load
			// before the reader's flag store.
			name: "check-before-flag",
			threads: []ThreadSpec{
				{"R", &Prog{Name: "R", NRegs: 1, Code: []Instr{
					{Op: OpLoad, Dst: 0, Loc: Konst(0), Atomic: true},
					{Op: OpBranch, Cond: RegRef(0), A: 6, B: 2},
					{Op: OpStore, Loc: Konst(1), Val: Konst(1), Atomic: true},
					{Op: OpCsEnter, Val: Konst(0)},
					{Op: OpCsExit, Val: Konst(0)},
					{Op: OpStore, Loc: Konst(1), Val: Konst(0), Atomic: true},
					{Op: OpHalt},
				}}},
				{"W", &Prog{Name: "W", NRegs: 1, Code: []Instr{
					{Op: OpStore, Loc: Konst(0), Val: Konst(1), Atomic: true},
					{Op: OpLoad, Dst: 0, Loc: Konst(1), Atomic: true},
					{Op: OpBranch, Cond: RegRef(0), A: 5, B: 3},
					{Op: OpCsEnter, Val: Konst(1)},
					{Op: OpCsExit, Val: Konst(1)},
					{Op: OpStore, Loc: Konst(0), Val: Konst(0), Atomic: true},
					{Op: OpHalt},
				}}},
			},
			kind:  ViolMutex,
			msg:   "section while",
			steps: 6,
		},
		{
			// Two mutexes taken in opposite orders. Shortest: one lock
			// each, then the idle thread's choice and halt.
			name: "lock-order",
			threads: []ThreadSpec{
				{"A", &Prog{Name: "A", Code: []Instr{
					{Op: OpMutexLock, Loc: Konst(0)},
					{Op: OpMutexLock, Loc: Konst(1)},
					{Op: OpMutexUnlock, Loc: Konst(1)},
					{Op: OpMutexUnlock, Loc: Konst(0)},
					{Op: OpHalt},
				}}},
				{"B", &Prog{Name: "B", Code: []Instr{
					{Op: OpMutexLock, Loc: Konst(1)},
					{Op: OpMutexLock, Loc: Konst(0)},
					{Op: OpMutexUnlock, Loc: Konst(0)},
					{Op: OpMutexUnlock, Loc: Konst(1)},
					{Op: OpHalt},
				}}},
			},
			kind:  ViolDeadlock,
			msg:   "blocked: [A B]",
			steps: 4,
		},
		{
			// A reader loads two halves a writer stores one at a time.
			// Shortest: the first half's store, then both loads.
			name: "torn-read",
			threads: []ThreadSpec{
				{"W", &Prog{Name: "W", Code: []Instr{
					{Op: OpStore, Loc: Konst(0), Val: Konst(1), Atomic: true},
					{Op: OpStore, Loc: Konst(1), Val: Konst(1), Atomic: true},
					{Op: OpHalt},
				}}},
				{"R", &Prog{Name: "R", NRegs: 2, Code: []Instr{
					{Op: OpLoad, Dst: 0, Loc: Konst(0), Atomic: true},
					{Op: OpLoad, Dst: 1, Loc: Konst(1), Atomic: true},
					{Op: OpAssert, Cond: Bin(OpEq, false, RegRef(0), RegRef(1)), Note: "torn read"},
					{Op: OpHalt},
				}}},
			},
			kind:  ViolAssert,
			msg:   "torn read",
			steps: 3,
		},
		{
			// Two load-then-store increments lose one. Shortest: both
			// loads, both stores, both halts, and the idle thread's choice
			// and halt.
			name: "lost-update",
			threads: []ThreadSpec{
				{"I", &Prog{Name: "I", NRegs: 1, Code: []Instr{
					{Op: OpLoad, Dst: 0, Loc: Konst(0), Atomic: true},
					{Op: OpStore, Loc: Konst(0), Val: Bin(OpAdd, false, RegRef(0), Konst(1)), Atomic: true},
					{Op: OpHalt},
				}}},
				{"J", &Prog{Name: "J", NRegs: 1, Code: []Instr{
					{Op: OpLoad, Dst: 0, Loc: Konst(0), Atomic: true},
					{Op: OpStore, Loc: Konst(0), Val: Bin(OpAdd, false, RegRef(0), Konst(1)), Atomic: true},
					{Op: OpHalt},
				}}},
			},
			init:   map[uint64]uint64{1: 2},
			finals: []Final{{Kind: FinalAllEqual, Cells: []uint64{0, 1}, Desc: "two increments"}},
			kind:   ViolFinal,
			msg:    "two increments",
			steps:  8,
		},
		{
			// Code a configuration claims unreachable runs once another
			// thread sets the word it is guarded by. Shortest: the store,
			// then the load.
			name: "reachable-trap",
			threads: []ThreadSpec{
				{"S", &Prog{Name: "S", Code: []Instr{
					{Op: OpStore, Loc: Konst(0), Val: Konst(1), Atomic: true},
					{Op: OpHalt},
				}}},
				{"T", &Prog{Name: "T", NRegs: 1, Code: []Instr{
					{Op: OpLoad, Dst: 0, Loc: Konst(0), Atomic: true},
					{Op: OpBranch, Cond: RegRef(0), A: 3, B: 2},
					{Op: OpHalt},
					{Op: OpTrap, Note: "unbound arm"},
				}}},
			},
			kind:  ViolTrap,
			msg:   "unbound arm",
			steps: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &Model{
				Name:    tc.name,
				Threads: append([]ThreadSpec{{"idle", busyIdle(pad)}}, tc.threads...),
				MemSize: pad + 3,
				Init:    tc.init,
				Finals:  tc.finals,
			}
			res := RunModel(m, ExploreOpts{})
			v := res.Violation
			if v == nil {
				t.Fatal("verified clean")
			}
			if v.Kind != tc.kind {
				t.Fatalf("kind = %s, want %s: %s", v.Kind, tc.kind, v.Msg)
			}
			if !v.Minimized {
				t.Error("counterexample was not minimized")
			}
			if len(v.Trace) != tc.steps {
				t.Errorf("trace has %d steps, want the shortest, %d:\n%s", len(v.Trace), tc.steps, RenderTrace(v))
			}
			if !strings.Contains(v.Msg, tc.msg) {
				t.Errorf("message %q does not contain %q", v.Msg, tc.msg)
			}
		})
	}
}
