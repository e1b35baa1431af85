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
			for _, sem := range []Sem{SemSC, SemTSO} {
				res := RunModel(m, sem, ExploreOpts{})
				if !res.Complete {
					t.Fatalf("%s: exploration incomplete", sem)
				}
				switch v := res.Violation; {
				case !tc.wantStuck && v != nil:
					t.Errorf("%s: %s\n%s", sem, v.Msg, RenderTrace(v))
				case tc.wantStuck && v == nil:
					t.Errorf("%s: spinner released without a change to its word", sem)
				case tc.wantStuck && (v.Kind != ViolDeadlock || !strings.Contains(v.Msg, "S spinning")):
					t.Errorf("%s: got %s %q, want a deadlock naming the spinner", sem, v.Kind, v.Msg)
				}
			}
		})
	}
}
