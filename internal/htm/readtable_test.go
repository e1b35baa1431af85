package htm

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/hang"
	"sprwl/internal/memmodel"
)

// readTableGuard bounds each guarded phase of the read-table tests. A
// round takes a few milliseconds, -race included.
const readTableGuard = 10 * time.Second

// TestReadTableGrowthDoomsReader grows a read set past its first two table
// sizes (512 and 1024 live lines) on an unlimited-capacity space while
// another goroutine stores to the first line the attempt read. The store
// lands at a different point of the growth in each round, before, during or
// after a table swap, and the reader must be doomed every time: a grown
// table that lost an entry, or a scan that missed the newest table, lets
// the attempt commit over the store.
func TestReadTableGrowthDoomsReader(t *testing.T) {
	const lines = 1200
	for _, storeAfter := range []int64{1, 300, 511, 512, 513, 700, 1023, 1024, 1025, 1100, lines} {
		s := MustNewSpace(Config{Threads: 2, Words: lines * memmodel.LineWords})
		var read atomic.Int64
		stored := make(chan struct{})
		var cause env.AbortCause
		hang.Guard(t, readTableGuard, func() {
			go func() {
				defer close(stored)
				for read.Load() < storeAfter {
					runtime.Gosched()
				}
				s.Store(0, 1)
			}()
			cause = s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
				for l := 0; l < lines; l++ {
					tx.Load(memmodel.Addr(l * memmodel.LineWords))
					read.Store(int64(l + 1))
				}
				<-stored
				tx.Load(memmodel.Addr((lines - 1) * memmodel.LineWords))
			})
		})
		if cause != env.AbortConflict {
			t.Errorf("store after %d lines read: reader ended with %v, want %v", storeAfter, cause, env.AbortConflict)
		}
		// The reader read at least storeAfter lines, and a table is at
		// most half full.
		if got := len(s.txs[0].reads.Load().entries); got < 2*int(storeAfter) {
			t.Errorf("store after %d lines read: read table has %d slots", storeAfter, got)
		}
	}
}

// TestReadTableEpochWrap runs attempts across the wrap of a slot's 32-bit
// epoch. A read-table entry is live only in the attempt whose epoch it
// carries, so a store to a line an earlier attempt read must not doom a
// later one, including the attempt whose epoch equals that of an entry
// written 2^32 attempts before. Each attempt also checks that a store to a
// line it read itself does doom it. The write set and the write log are
// stamped with the same epoch: the first attempt stores to a word, the two
// attempts before the wrap leave its line alone, and no attempt after the
// wrap may read that buffered value back or find the line already in its
// write set.
func TestReadTableEpochWrap(t *testing.T) {
	s := MustNewSpace(Config{Threads: 1, Words: 64 * memmodel.LineWords})
	tx := &s.txs[0]
	line := func(i int) memmodel.Addr { return memmodel.Addr(i * memmodel.LineWords) }
	written, other := line(63), line(62)
	attempt := func(i int) {
		cause := s.Attempt(0, env.TxOpts{}, func(acc env.TxAccessor) {
			switch {
			case i == 0:
				acc.Store(written, 7)
			case tx.epoch <= 2: // after the wrap
				acc.Store(other, 1)
				if v := acc.Load(written); v != 0 {
					t.Errorf("epoch %d: a load returned %d, not the value in memory", tx.epoch, v)
				}
				acc.Store(written, 1)
				if w := s.line(memmodel.LineOf(written)).writer.Load(); w != 1 {
					t.Errorf("epoch %d: a first store left the line's owner at %d, want 1", tx.epoch, w)
				}
			}
			for j := 0; j < i; j++ {
				s.Store(line(j), 1)
			}
			if acc.Aborted() {
				t.Errorf("epoch %d: a store to a line read before doomed the attempt", tx.epoch)
			}
			acc.Load(line(i))
			s.Store(line(i), 1)
			if !acc.Aborted() {
				t.Errorf("epoch %d: a store to a line the attempt read did not doom it", tx.epoch)
			}
		})
		if cause != env.AbortConflict {
			t.Errorf("epoch %d: attempt ended with %v, want %v", tx.epoch, cause, env.AbortConflict)
		}
	}
	// A probe that takes a stale or zero entry for a live one never
	// ends; the guard turns that into a failure.
	hang.Guard(t, readTableGuard, func() {
		attempt(0) // epoch 1, which the first attempt after the wrap reuses
		tx.epoch = math.MaxUint32 - 2
		for i := 1; i <= 4; i++ { // epochs 2^32-2, 2^32-1, then 1, 2
			attempt(i)
		}
	})
	if tx.epoch != 2 {
		t.Fatalf("epoch = %d after the wrap, want 2", tx.epoch)
	}
}
