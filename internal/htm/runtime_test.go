package htm

import (
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/park"
	"sprwl/internal/tsc"
)

// TestRuntimeAlwaysParks: the real runtime always hands wait sites its
// waiter table; there is no spin-only configuration.
func TestRuntimeAlwaysParks(t *testing.T) {
	space := MustNewSpace(Config{Threads: 2, Words: 1 << 12})
	if park.FromEnv(NewRuntime(space, nil)) == nil {
		t.Fatal("runtime exposes no parker: wait sites would only spin")
	}
}

func TestRuntimeDelegates(t *testing.T) {
	space := MustNewSpace(Config{Threads: 3, Words: 1 << 12})
	rt := NewRuntime(space, nil)
	if rt.Threads() != 3 {
		t.Fatalf("Threads = %d, want 3", rt.Threads())
	}
	if rt.Space() != space {
		t.Fatal("Space() does not return the underlying space")
	}
	rt.Store(0, 5)
	if got := rt.Load(0); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
	if !rt.CAS(0, 5, 6) {
		t.Fatal("CAS failed")
	}
	if got := rt.Add(0, 4); got != 10 {
		t.Fatalf("Add = %d, want 10", got)
	}
	cause := rt.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		tx.Store(8, tx.Load(0))
	})
	if cause != env.Committed {
		t.Fatalf("Attempt = %v, want Committed", cause)
	}
	if got := rt.Load(8); got != 10 {
		t.Fatalf("transactional copy = %d, want 10", got)
	}
}

func TestRuntimeClockAndWaits(t *testing.T) {
	space := MustNewSpace(Config{Threads: 1, Words: 1 << 10})
	rt := NewRuntime(space, nil)
	start := rt.Now()
	rt.Yield()          // must not block
	rt.WaitUntil(start) // already past: returns immediately
	target := rt.Now() + uint64(2*time.Millisecond)
	rt.WaitUntil(target)
	if now := rt.Now(); now < target {
		t.Fatalf("WaitUntil returned early: now %d < target %d", now, target)
	}
}

func TestRuntimeManualClock(t *testing.T) {
	space := MustNewSpace(Config{Threads: 1, Words: 1 << 10})
	clk := tsc.NewManual(1000)
	rt := NewRuntime(space, clk)
	if rt.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", rt.Now())
	}
	clk.Advance(500)
	if rt.Now() != 1500 {
		t.Fatalf("Now = %d after Advance, want 1500", rt.Now())
	}
}

func TestProfileGeometry(t *testing.T) {
	b := Broadwell()
	if b.MaxThreads() != 56 {
		t.Fatalf("Broadwell MaxThreads = %d, want 56", b.MaxThreads())
	}
	p := Power8()
	if p.MaxThreads() != 80 {
		t.Fatalf("Power8 MaxThreads = %d, want 80", p.MaxThreads())
	}
	// One thread per core while they last.
	if got := p.ThreadsPerCore(10); got != 1 {
		t.Fatalf("ThreadsPerCore(10) = %d, want 1", got)
	}
	if got := p.ThreadsPerCore(80); got != 8 {
		t.Fatalf("ThreadsPerCore(80) = %d, want 8", got)
	}
	r1, w1 := p.EffectiveCapacity(1)
	r8, w8 := p.EffectiveCapacity(80)
	if r8 >= r1 || w8 >= w1 {
		t.Fatalf("SMT sharing did not shrink capacity: (%d,%d) -> (%d,%d)", r1, w1, r8, w8)
	}
	// Capacity never collapses to zero.
	if r8 < 1 || w8 < 1 {
		t.Fatalf("effective capacity underflowed: %d, %d", r8, w8)
	}
	if !b.FitsRead(64 * 10) {
		t.Fatal("10 lines should fit Broadwell's read capacity")
	}
	if b.FitsRead(64 * 100000) {
		t.Fatal("100k lines should not fit Broadwell's read capacity")
	}
}
