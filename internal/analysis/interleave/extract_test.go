package interleave

import (
	"strings"
	"sync"
	"testing"
)

var (
	testExOnce sync.Once
	testEx     *extractor
	testExErr  error
)

// testExtractor loads the module once for every test in the package.
func testExtractor(t *testing.T) *extractor {
	t.Helper()
	testExOnce.Do(func() { testEx, testExErr = newExtractor(".") })
	if testExErr != nil {
		t.Fatalf("loading module: %v", testExErr)
	}
	return testEx
}

// TestExtractParkGolden pins the extracted shape of park.Table.Park: the
// exact atomic-step count and shared-cell footprint. A change here means
// the park protocol's interleaving surface changed — reviewed on purpose
// or a lowering regression.
func TestExtractParkGolden(t *testing.T) {
	ex := testExtractor(t)
	b := &binder{threads: 2, parker: true}
	p, err := ex.extractRoot(
		funcRef{pkgPath: pkgPark, recv: "Table", name: "Park"},
		objVal(b.tableObj()),
		[]*absVal{numVal(Konst(cellPhase)), numVal(Konst(0))},
		extractOpts{site: "T"},
	)
	if err != nil {
		t.Fatalf("extract Park: %v", err)
	}

	// Park's visible steps: shard-mutex lock, waiters increment, the gen
	// snapshot load, the gen/phase re-check loads + cond-wait of the wait
	// loop, waiters decrement, shard-mutex unlock.
	const wantSteps = 9
	if got := p.VisibleSteps(); got != wantSteps {
		t.Errorf("Park visible steps = %d, want %d\n%s", got, wantSteps, progDump(p))
	}

	names := func(c uint64) string { return (&Model{CellNames: cellNames(2)}).CellName(c) }
	want := []string{"phase", "shard[5].gen", "shard[5].mu", "shard[5].waiters"}
	if got := p.Footprint(names); !equalStrings(got, want) {
		t.Errorf("Park footprint = %v, want %v", got, want)
	}
}

// TestExtractAwaitGLClearGolden pins the reader/writer shared pre-wait:
// one lock-word load per spin, a park choice whose park arm is the real
// Table.Park on the lock word.
func TestExtractAwaitGLClearGolden(t *testing.T) {
	ex := testExtractor(t)
	b := &binder{threads: 2, parker: true}
	p, err := ex.extractRoot(
		funcRef{pkgPath: pkgCore, recv: "handle", name: "awaitGLClear"},
		objVal(b.handleObj(0)),
		[]*absVal{numVal(Konst(0)), numVal(Konst(0))},
		extractOpts{site: "T"},
	)
	if err != nil {
		t.Fatalf("extract awaitGLClear: %v", err)
	}

	// The lock-word IsLocked load, the park choice, and the inlined
	// Table.Park steps (9, see TestExtractParkGolden) on the lock word's
	// shard.
	const wantSteps = 1 + 1 + 9
	if got := p.VisibleSteps(); got != wantSteps {
		t.Errorf("awaitGLClear visible steps = %d, want %d\n%s", got, wantSteps, progDump(p))
	}

	names := func(c uint64) string { return (&Model{CellNames: cellNames(2)}).CellName(c) }
	want := []string{"gl", "shard[0].gen", "shard[0].mu", "shard[0].waiters"}
	if got := p.Footprint(names); !equalStrings(got, want) {
		t.Errorf("awaitGLClear footprint = %v, want %v", got, want)
	}
}

// TestExtractRequiresDirective: only //sprwl:model-annotated functions may
// be extraction roots — the modeled surface is explicit.
func TestExtractRequiresDirective(t *testing.T) {
	ex := testExtractor(t)
	b := &binder{threads: 2, parker: true}
	_, err := ex.extractRoot(
		funcRef{pkgPath: pkgCore, recv: "handle", name: "glWaiter"},
		objVal(b.handleObj(0)),
		nil,
		extractOpts{site: "T"},
	)
	if err == nil || !strings.Contains(err.Error(), "sprwl:model") {
		t.Fatalf("extracting unannotated root: err = %v, want missing-directive error", err)
	}
}

func progDump(p *Prog) string {
	var b strings.Builder
	for i := range p.Code {
		if p.Code[i].Op.Visible() {
			b.WriteString("  ")
			b.WriteString(p.Code[i].String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
