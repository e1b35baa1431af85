package htm

import (
	"runtime"
	"sync/atomic"
	"testing"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// Microbenchmarks for the emulation hot path. Every benchmark reports
// allocations: the transactional data structures are required to be
// allocation-free in steady state (see DESIGN.md "Emulation data
// structures"), so allocs/op must read 0.

// BenchmarkTxLoad measures the repeat-access transactional load path: after
// the first touch of each line the load should cost one membership check
// plus one atomic word read.
func BenchmarkTxLoad(b *testing.B) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < b.N; i++ {
			sink += tx.Load(memmodel.Addr(i & 255))
		}
	})
	_ = sink
}

// BenchmarkTxStore measures the repeat-access transactional store path:
// after the first store to each word, subsequent stores update the buffered
// value in place.
func BenchmarkTxStore(b *testing.B) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	b.ReportAllocs()
	b.ResetTimer()
	s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < b.N; i++ {
			tx.Store(memmodel.Addr(i&63), uint64(i))
		}
	})
}

// BenchmarkTxReadYourWrite measures loads that hit the transaction's own
// buffered writes (the write-lookup fast path).
func BenchmarkTxReadYourWrite(b *testing.B) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < 64; i++ {
			tx.Store(memmodel.Addr(i), uint64(i))
		}
		for i := 0; i < b.N; i++ {
			sink += tx.Load(memmodel.Addr(i & 63))
		}
	})
	_ = sink
}

// BenchmarkAttemptEmpty measures the begin/commit overhead of one hardware
// attempt with an empty body — the cost every critical section pays before
// doing any work.
func BenchmarkAttemptEmpty(b *testing.B) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	body := func(tx env.TxAccessor) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Attempt(0, env.TxOpts{}, body)
	}
}

// BenchmarkAttemptSmallTx measures a whole minimal read-modify-write
// transaction including begin and write-back.
func BenchmarkAttemptSmallTx(b *testing.B) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	body := func(tx env.TxAccessor) { tx.Store(0, tx.Load(0)+1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Attempt(0, env.TxOpts{}, body)
	}
}

// BenchmarkUninstrumentedLoad measures the non-transactional strong-isolation
// load path.
func BenchmarkUninstrumentedLoad(b *testing.B) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Load(memmodel.Addr(i & 511))
	}
	_ = sink
}

// BenchmarkUninstrumentedStore measures the non-transactional
// strong-isolation store path.
func BenchmarkUninstrumentedStore(b *testing.B) {
	s := MustNewSpace(Config{Threads: 1, Words: 1 << 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Store(memmodel.Addr(i&511), uint64(i))
	}
}

// BenchmarkTxLoadSharedLines measures read-mostly transactions that share
// their read set: every goroutine's attempt reads the same 32 lines, so any
// per-line reader metadata they write is written by all of them. One op is
// one committed attempt.
func BenchmarkTxLoadSharedLines(b *testing.B) {
	const lines = 32
	threads := runtime.GOMAXPROCS(0)
	s := MustNewSpace(Config{Threads: threads, Words: lines * memmodel.LineWords})
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		slot := int(next.Add(1)-1) % threads
		var sink uint64
		body := func(tx env.TxAccessor) {
			for l := 0; l < lines; l++ {
				sink += tx.Load(memmodel.Addr(l * memmodel.LineWords))
			}
		}
		for pb.Next() {
			if c := s.Attempt(slot, env.TxOpts{}, body); c != env.Committed {
				b.Errorf("read-only attempt aborted: %v", c)
				return
			}
		}
		_ = sink
	})
}

// BenchmarkUninstrumentedStoreWithActiveReader prices the strong-isolation
// scan of an uninstrumented store while another slot runs a transaction
// that holds 32 lines, none of them the stored one, so the store finds a
// reader to check and never dooms it.
func BenchmarkUninstrumentedStoreWithActiveReader(b *testing.B) {
	s := MustNewSpace(Config{Threads: 4, Words: 1 << 12})
	tx := &s.txs[1]
	tx.begin(env.TxOpts{})
	for l := 1; l <= 32; l++ {
		tx.Load(memmodel.Addr(l * memmodel.LineWords))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Store(memmodel.Addr(i&7), uint64(i))
	}
	b.StopTimer()
	if tx.doomed() {
		b.Fatal("a store to an unread line doomed the reader")
	}
	tx.cleanup()
}
