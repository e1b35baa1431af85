package sprwl_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"sprwl"
)

// The smallest complete SpRWL program. Four goroutines share a pair of
// counters that a writer always keeps equal; readers verify they never
// observe them apart — the snapshot guarantee SpRWL provides to
// uninstrumented readers (paper Figs. 1–2).
func Example() {
	const threads = 4
	l, err := sprwl.New(sprwl.Config{
		Threads: threads,
		Words:   sprwl.MinWords(threads) + 4096,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Carve two counters out of the lock's address space, each on its
	// own cache line.
	x := l.Arena().AllocLines(1)
	y := l.Arena().AllocLines(1)

	var wg sync.WaitGroup
	var torn atomic.Int64
	for slot := 0; slot < threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.Handle(slot)
			for i := 0; i < 10_000; i++ {
				if slot == 0 {
					// The writer bumps both counters in one
					// critical section; SpRWL runs it as a
					// hardware transaction.
					h.Write(0, func(m sprwl.Accessor) {
						v := m.Load(x) + 1
						m.Store(x, v)
						m.Store(y, v)
					})
				} else {
					// Readers run uninstrumented — no
					// transactional footprint limits — yet
					// never see the pair apart.
					h.Read(1, func(m sprwl.Accessor) {
						if m.Load(x) != m.Load(y) {
							torn.Add(1)
						}
					})
				}
			}
		}(slot)
	}
	wg.Wait()

	if n := torn.Load(); n != 0 {
		fmt.Printf("%d torn reads observed\n", n)
		return
	}
	fmt.Println("no torn reads across 40k critical sections")
	// Output: no torn reads across 40k critical sections
}

// Concurrent transfers with online auditing. Transfer transactions
// (writers) move money between accounts; auditors (readers) sum every
// balance and verify the total is conserved. The audit is a long read-only
// critical section — the classic consistent-snapshot problem read-write
// locks exist for. With SpRWL the audits run uninstrumented and in
// parallel with each other, while transfers execute as emulated hardware
// transactions that only commit when no audit is mid-flight (paper §3.1).
func Example_bank() {
	const (
		accounts  = 1024
		initial   = 1000
		threads   = 8
		transfers = 5000
		audits    = 300
	)
	l, err := sprwl.New(sprwl.Config{
		Threads: threads,
		Words:   sprwl.MinWords(threads) + (accounts+8)*8,
		Machine: sprwl.Broadwell(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	base := l.Arena().AllocLines(accounts)
	acct := func(i int) sprwl.Addr { return base + sprwl.Addr(i*8) }
	prov := l.Provision()
	for i := 0; i < accounts; i++ {
		prov.Store(acct(i), initial)
	}

	var wg sync.WaitGroup
	badAudits := make(chan uint64, threads)
	for slot := 0; slot < threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.Handle(slot)
			rng := rand.New(rand.NewPCG(uint64(slot), 123))
			if slot%4 == 0 {
				for a := 0; a < audits; a++ {
					var total uint64
					h.Read(0, func(m sprwl.Accessor) {
						total = 0
						for i := 0; i < accounts; i++ {
							total += m.Load(acct(i))
						}
					})
					if total != accounts*initial {
						badAudits <- total
						return
					}
				}
			} else {
				for tr := 0; tr < transfers; tr++ {
					from, to := rng.IntN(accounts), rng.IntN(accounts)
					amount := uint64(rng.IntN(50))
					if from == to {
						continue
					}
					h.Write(1, func(m sprwl.Accessor) {
						f := m.Load(acct(from))
						if f < amount {
							return
						}
						m.Store(acct(from), f-amount)
						m.Store(acct(to), m.Load(acct(to))+amount)
					})
				}
			}
		}(slot)
	}
	wg.Wait()
	close(badAudits)
	for total := range badAudits {
		fmt.Printf("audit saw total %d, want %d — snapshot violated\n", total, accounts*initial)
		return
	}

	var final uint64
	for i := 0; i < accounts; i++ {
		final += prov.Load(acct(i))
	}
	fmt.Printf("all audits consistent; money conserved (%d)\n", final)
	// Output: all audits consistent; money conserved (1024000)
}
