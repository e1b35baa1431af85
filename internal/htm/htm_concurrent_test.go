package htm

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// retryTx runs body until it commits, mimicking an unbounded hardware retry
// loop (no fallback needed for these small conflict-only workloads). It
// yields between attempts: requester-wins conflict resolution livelocks
// without backoff, on real HTM as much as here.
func retryTx(s *Space, slot int, body func(tx env.TxAccessor)) {
	for s.Attempt(slot, env.TxOpts{}, body) != env.Committed {
		runtime.Gosched()
	}
}

// TestConcurrentCounterIncrements hammers one cache line with transactional
// increments from every slot; the final value must equal the increment
// count, or the emulation lost an update.
func TestConcurrentCounterIncrements(t *testing.T) {
	const (
		threads = 8
		perThr  = 400
	)
	s := newTestSpace(t, Config{Threads: threads, Words: 1 << 10})
	var wg sync.WaitGroup
	for slot := 0; slot < threads; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perThr; i++ {
				retryTx(s, slot, func(tx env.TxAccessor) {
					tx.Store(0, tx.Load(0)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got, want := s.Load(0), uint64(threads*perThr); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

// TestConcurrentBankTransfers moves value between accounts transactionally
// while transactional auditors verify the balance invariant; total money
// must be conserved at every observable point.
func TestConcurrentBankTransfers(t *testing.T) {
	const (
		accounts = 16
		initial  = 1000
		threads  = 6
		transfer = 300
	)
	s := newTestSpace(t, Config{Threads: threads + 1, Words: 1 << 12})
	acct := func(i int) memmodel.Addr { return memmodel.Addr(i * memmodel.LineWords) }
	for i := 0; i < accounts; i++ {
		s.Store(acct(i), initial)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for slot := 0; slot < threads; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(slot), 42))
			for i := 0; i < transfer; i++ {
				from, to := rng.IntN(accounts), rng.IntN(accounts)
				if from == to {
					continue
				}
				retryTx(s, slot, func(tx env.TxAccessor) {
					f := tx.Load(acct(from))
					if f == 0 {
						return
					}
					tx.Store(acct(from), f-1)
					tx.Store(acct(to), tx.Load(acct(to))+1)
				})
			}
		}()
	}
	// Auditor (outside the transfer WaitGroup — it runs until the
	// transfers finish): transactional snapshots must always sum to the
	// total.
	auditorDone := make(chan struct{})
	go func() {
		defer close(auditorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum uint64
			cause := s.Attempt(threads, env.TxOpts{}, func(tx env.TxAccessor) {
				sum = 0
				for i := 0; i < accounts; i++ {
					sum += tx.Load(acct(i))
				}
			})
			if cause == env.Committed && sum != accounts*initial {
				t.Errorf("auditor saw total %d, want %d", sum, accounts*initial)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	<-auditorDone

	var total uint64
	for i := 0; i < accounts; i++ {
		total += s.Load(acct(i))
	}
	if total != accounts*initial {
		t.Fatalf("final total = %d, want %d", total, accounts*initial)
	}
}

// TestUninstrumentedReadersNeverSeeTornCommit verifies commit atomicity from
// the uninstrumented side: a transaction always writes the same value to two
// words of DIFFERENT lines inside one transaction; an uninstrumented reader
// that reads word B first and word A second can never see B newer than A
// (the writer externalizes both atomically; reading A after B can only make
// A appear *at least as new*).
func TestUninstrumentedReadersNeverSeeTornCommit(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 2, Words: 1 << 10})
	const (
		a = memmodel.Addr(0)
		b = memmodel.Addr(64)
		n = 3000
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(1); v <= n; v++ {
			retryTx(s, 0, func(tx env.TxAccessor) {
				tx.Store(a, v)
				tx.Store(b, v)
			})
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		vb := s.Load(b)
		va := s.Load(a)
		if va < vb {
			t.Fatalf("torn commit observed: a=%d older than b=%d", va, vb)
		}
	}
}

// TestUninstrumentedLoadSeesEarlierCommit reads the two words in commit
// order: once a reads a commit's value, that commit happened before the load
// of b began, so b must be at least as new. A Load that read the word before
// checking line ownership could return a value from before a write-back
// that finished entirely between its two reads.
func TestUninstrumentedLoadSeesEarlierCommit(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 2, Words: 1 << 10})
	const (
		a = memmodel.Addr(0)
		b = memmodel.Addr(64)
		n = 3000
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(1); v <= n; v++ {
			retryTx(s, 0, func(tx env.TxAccessor) {
				tx.Store(a, v)
				tx.Store(b, v)
			})
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		va := s.Load(a)
		vb := s.Load(b)
		if vb < va {
			t.Fatalf("stale load: b=%d older than a=%d", vb, va)
		}
	}
}

// TestTransactionalBodiesSeeConsistentSnapshots checks opacity: a reading
// transaction's body must never observe a and b differ, not even in an
// attempt that goes on to abort. Hardware aborts a transaction as soon as a
// conflicting commit invalidates its read set, so a body only ever acts on
// a consistent snapshot; HTM-first readers whose bodies branch or report on
// what they read depend on it.
func TestTransactionalBodiesSeeConsistentSnapshots(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 2, Words: 1 << 10})
	const (
		a = memmodel.Addr(0)
		b = memmodel.Addr(64)
		n = 3000
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(1); v <= n; v++ {
			retryTx(s, 0, func(tx env.TxAccessor) {
				tx.Store(a, v)
				tx.Store(b, v)
			})
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		torn := false
		var va, vb uint64
		s.Attempt(1, env.TxOpts{}, func(tx env.TxAccessor) {
			va = tx.Load(a)
			vb = tx.Load(b)
			torn = va != vb
		})
		if torn {
			t.Fatalf("transaction body observed a=%d, b=%d", va, vb)
		}
	}
}

// TestConflictingWritersSerialize runs two transactions that both
// read-modify-write a pair of lines in opposite order; with eager
// requester-wins resolution neither deadlock nor lost updates may occur.
func TestConflictingWritersSerialize(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 2, Words: 1 << 10})
	const (
		x = memmodel.Addr(0)
		y = memmodel.Addr(64)
		n = 500
	)
	var wg sync.WaitGroup
	for slot := 0; slot < 2; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first, second := x, y
			if slot == 1 {
				first, second = y, x
			}
			for i := 0; i < n; i++ {
				retryTx(s, slot, func(tx env.TxAccessor) {
					tx.Store(first, tx.Load(first)+1)
					tx.Store(second, tx.Load(second)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := s.Load(x); got != 2*n {
		t.Fatalf("x = %d, want %d", got, 2*n)
	}
	if got := s.Load(y); got != 2*n {
		t.Fatalf("y = %d, want %d", got, 2*n)
	}
}

// TestQuickSerializableSums is a property-based test: for random workload
// shapes, concurrent transactional accumulation into disjoint or shared
// cells conserves the grand total.
func TestQuickSerializableSums(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow under -short")
	}
	prop := func(seed uint64, sharedPct uint8, threadsRaw uint8) bool {
		threads := 2 + int(threadsRaw%6)
		const perThr = 50
		s := MustNewSpace(Config{Threads: threads, Words: 1 << 12})
		cells := 8
		var wg sync.WaitGroup
		for slot := 0; slot < threads; slot++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, uint64(slot)))
				for i := 0; i < perThr; i++ {
					var cell int
					if rng.IntN(100) < int(sharedPct%100) {
						cell = 0 // contended cell
					} else {
						cell = rng.IntN(cells)
					}
					addr := memmodel.Addr(cell * memmodel.LineWords)
					retryTx(s, slot, func(tx env.TxAccessor) {
						tx.Store(addr, tx.Load(addr)+1)
					})
				}
			}()
		}
		wg.Wait()
		var total uint64
		for c := 0; c < cells; c++ {
			total += s.Load(memmodel.Addr(c * memmodel.LineWords))
		}
		return total == uint64(threads*perThr)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedTxAndUninstrumentedStores interleaves transactional and
// uninstrumented writers on the same lines; strong isolation must keep the
// final state equal to the last writer's value and never resurrect doomed
// buffered writes.
func TestMixedTxAndUninstrumentedStores(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 2, Words: 1 << 10})
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // transactional writer: writes even values
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
				tx.Store(0, uint64(i)*2)
			})
		}
	}()
	go func() { // uninstrumented writer: writes odd values
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.Store(0, uint64(i)*2+1)
		}
	}()
	wg.Wait()
	// No torn/stale state representable here beyond type safety; the test
	// passes if the race detector and the doom protocol stayed silent and
	// the final value is one that was actually written.
	v := s.Load(0)
	if v >= rounds*2+1 {
		t.Fatalf("final value %d was never written", v)
	}
}
