package htm

import (
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// TestUninstrumentedAccessDoomsReownedLine: an uninstrumented access that
// finds a line owned by a committing transaction waits for the release,
// but the same slot's next attempt can re-own the line before the waiter
// sees it free. The waiter must then doom that attempt instead of waiting
// for it, because the attempt may be waiting for the waiter in turn: an
// RW-LE writer suspended in its reader quiescence waits for the reader
// epoch of exactly such a waiter. The test reaches that state directly:
// slot 0 owns the line and is committing, the access starts waiting, and
// slot 0 then turns active again without the line ever being released.
func TestUninstrumentedAccessDoomsReownedLine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		access func(s *Space, a memmodel.Addr)
	}{
		{"Load", func(s *Space, a memmodel.Addr) { s.Load(a) }},
		{"Store", func(s *Space, a memmodel.Addr) { s.Store(a, 1) }},
		{"CAS", func(s *Space, a memmodel.Addr) { s.CAS(a, 0, 1) }},
		{"Add", func(s *Space, a memmodel.Addr) { s.Add(a, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNewSpace(Config{Threads: 2, Words: 64})
			const a = memmodel.Addr(8)
			tx := &s.txs[0]
			tx.begin(env.TxOpts{})
			tx.Store(a, 5)
			tx.state.Store(tx.stateWord(packState(stCommitting, env.Committed)))

			done := make(chan struct{})
			go func() {
				defer close(done)
				tc.access(s, a)
			}()
			// Let the access reach its wait for the committing owner,
			// then let the slot's "next attempt" own the line.
			time.Sleep(20 * time.Millisecond)
			tx.state.Store(tx.stateWord(packState(stActive, env.Committed)))
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("access still waiting on a line its owner slot re-owned")
			}
			if !tx.doomed() {
				t.Error("the re-owning attempt was not doomed")
			}
			tx.cleanup()
		})
	}
}
