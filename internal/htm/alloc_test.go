package htm

import (
	"testing"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// TestAttemptDoesNotAllocate pins the steady-state allocation contract for
// the emulation fast path (DESIGN.md "Emulation data structures"): after
// the first attempt has grown the read/write sets to their working size, a
// whole begin/body/commit cycle — including Tx.Load and Tx.Store — must
// not heap-allocate, the re-use of the grown sets included.
func TestAttemptDoesNotAllocate(t *testing.T) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	body := func(tx env.TxAccessor) {
		for i := 0; i < 64; i++ {
			tx.Store(memmodel.Addr(i), tx.Load(memmodel.Addr(i))+1)
		}
	}
	// Warm up: grow the line sets and write log to their working size.
	for i := 0; i < 4; i++ {
		if c := s.Attempt(0, env.TxOpts{}, body); c != env.Committed {
			t.Fatalf("warm-up attempt %d: %v", i, c)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if c := s.Attempt(0, env.TxOpts{}, body); c != env.Committed {
			t.Fatalf("attempt aborted: %v", c)
		}
	})
	if avg != 0 {
		t.Fatalf("Attempt allocated %.2f objects per run, want 0", avg)
	}
}

// TestTxLoadStoreRepeatAccessDoesNotAllocate measures the in-transaction
// repeat-access paths in isolation: loads and stores to lines already in
// the transaction's sets must be pure lookups and in-place updates.
func TestTxLoadStoreRepeatAccessDoesNotAllocate(t *testing.T) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	var sink uint64
	body := func(tx env.TxAccessor) {
		for i := 0; i < 32; i++ {
			tx.Store(memmodel.Addr(i), uint64(i))
		}
		for r := 0; r < 8; r++ {
			for i := 0; i < 32; i++ {
				sink += tx.Load(memmodel.Addr(i))
			}
		}
	}
	if c := s.Attempt(0, env.TxOpts{}, body); c != env.Committed {
		t.Fatalf("warm-up attempt: %v", c)
	}
	avg := testing.AllocsPerRun(50, func() {
		if c := s.Attempt(0, env.TxOpts{}, body); c != env.Committed {
			t.Fatalf("attempt aborted: %v", c)
		}
	})
	_ = sink
	if avg != 0 {
		t.Fatalf("Tx load/store allocated %.2f objects per run, want 0", avg)
	}
}
