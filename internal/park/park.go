// Package park is the waiter-management layer behind every wait loop in
// this repository: sleep/wake keyed on a simulated address plus an expected
// value, in the style of the glibc rwlock futex-phase protocol
// (__wrphase_futex / __writers_futex in SNIPPETS.md).
//
// The motivating failure mode is oversubscription. Every wait site in
// internal/core and internal/locks used to be a raw spin loop — fine while
// each thread owns a core, fatal when 256+ goroutines share a handful of
// GOMAXPROCS slots: the spinners burn exactly the CPU the active threads
// need to finish the critical section everyone is waiting for. With park,
// a waiter spins briefly (preserving the low wake-to-run latency that makes
// short waits cheap) and then parks on the phase word it is watching; the
// releasing side wakes parked waiters after its phase store.
//
// # Lost-wakeup argument
//
// The waker's protocol is store-then-wake: it updates the phase word first
// and calls Wake second. The parker's protocol is register-then-check: Park
// takes the word's shard lock, increments the shard's waiter count, and
// only then re-reads the phase word, sleeping only if it still holds the
// expected value. These two orders interlock:
//
//   - If the waker's fast path reads a zero waiter count, that read is
//     ordered (all counters and phase words are sequentially-consistent
//     atomics) after the waker's phase store and before the parker's
//     increment — so the parker's subsequent re-read observes the new
//     phase value and returns without sleeping.
//   - If the waker sees a nonzero count, it takes the shard lock, bumps
//     the generation, and broadcasts. The parker holds that lock from its
//     re-read until Cond.Wait atomically releases it, so the broadcast
//     cannot fall into the window between check and sleep.
//
// Either way there is no interleaving in which the final wake precedes the
// sleep and is lost. A waiter may be woken spuriously (shards are shared
// by many words and wakes are broadcasts); callers therefore always
// re-check their predicate in a loop, which the Waiter helper enforces
// structurally.
//
// # Environments
//
// The real concurrent runtime (internal/htm) owns a Table and blocks
// goroutines for real. The discrete-event simulator (internal/sim)
// provides no parker at all, so every Waiter degrades to exactly the spin
// (or modelled spin-then-block) sequence the sites performed before this
// package existed, keeping simulated sweeps bit-identical.
package park

import (
	"sync"
	"sync/atomic"

	"sprwl/internal/memmodel"
)

// Parker is the sleep/wake primitive an execution environment provides.
// Park and Wake are keyed on a simulated address; the expected value makes
// the check-then-sleep race-free (futex semantics).
type Parker interface {
	// Park blocks the calling thread while the word at a still holds
	// expected. It may return spuriously; callers re-check their
	// predicate and park again.
	Park(a memmodel.Addr, expected uint64)

	// Wake unblocks every thread parked on a. The caller must have
	// already performed the phase store that invalidates the waiters'
	// expected value (store-then-wake).
	Wake(a memmodel.Addr)
}

// Provider is implemented by execution environments that supply a parking
// primitive (the real runtime, htm.Runtime). Environments without one
// either do not implement Provider or return a nil Parker; wait sites then
// spin, exactly as they did before parking existed.
type Provider interface {
	Parker() Parker
}

// FromEnv extracts e's parker. It returns nil — spin-only — when e does
// not implement Provider or its Parker is nil.
func FromEnv(e any) Parker {
	if p, ok := e.(Provider); ok {
		return p.Parker()
	}
	return nil
}

// Hub is a nil-safe wake endpoint held by lock implementations: release
// paths call Wake unconditionally and a hub without a parker reduces to a
// single branch, mirroring the nil-*obs.Ring pattern.
type Hub struct{ p Parker }

// HubFor builds the wake endpoint for e's environment.
func HubFor(e any) Hub { return Hub{p: FromEnv(e)} }

// NewHub wraps an explicit parker (nil allowed).
func NewHub(p Parker) Hub { return Hub{p: p} }

// Enabled reports whether wakes reach a real parker.
func (h Hub) Enabled() bool { return h.p != nil }

// Parker returns the underlying parker (nil when disabled), for handing to
// Waiters at the hub owner's wait sites.
func (h Hub) Parker() Parker { return h.p }

// Wake wakes every thread parked on a, after the caller's phase store.
//
//sprwl:model
func (h Hub) Wake(a memmodel.Addr) {
	if h.p != nil {
		h.p.Wake(a)
	}
}

// tableShards is the waiter-table shard count. Shards trade wake precision
// for footprint: a wake broadcasts to every waiter whose word hashes into
// the shard, and the woken threads re-check their own predicates. 64
// shards keep cross-word collisions rare at the goroutine counts the
// oversubscription sweep runs (1024) while the table stays a few KiB.
const tableShards = 64

// Table is the sharded waiter table: the real-runtime Parker. The zero
// value is not ready to use; build with NewTable.
type Table struct {
	load   func(memmodel.Addr) uint64
	shards [tableShards]shard
}

// shard is one bucket of waiters. The waiter count is read outside the
// lock by Wake's fast path (see the lost-wakeup argument in the package
// comment); everything else is guarded by mu. Padded so neighbouring
// shards do not false-share under heavy wake traffic.
type shard struct {
	mu      sync.Mutex
	cond    sync.Cond
	gen     uint64
	waiters atomic.Int64
	_       [40]byte
}

// NewTable builds a waiter table whose Park re-checks phase words through
// load, which must read the same memory — with at least acquire ordering
// against the wakers' phase stores — that the wait sites read.
func NewTable(load func(memmodel.Addr) uint64) *Table {
	t := &Table{load: load}
	for i := range t.shards {
		t.shards[i].cond.L = &t.shards[i].mu
	}
	return t
}

// shardIndex hashes a word address to its shard (Fibonacci multiplicative
// hash; adjacent addresses land in different shards so one hot line does
// not serialize the whole table).
func shardIndex(a memmodel.Addr) int {
	return int((uint64(a) * 0x9e3779b97f4a7c15) >> 58 % tableShards)
}

// Park implements Parker: register in the shard, re-check the word under
// the lock, and sleep until a wake (or a spurious shard broadcast). The
// no-sleep path — the word no longer holds expected — performs no
// allocation and no blocking beyond the shard lock.
//
//sprwl:model
func (t *Table) Park(a memmodel.Addr, expected uint64) {
	s := &t.shards[shardIndex(a)]
	s.mu.Lock()
	// Register before the check: the waiter count must be visible before
	// the phase re-read, or a concurrent waker could both miss the count
	// and have its store missed (the lost-wakeup window).
	s.waiters.Add(1)
	for g := s.gen; s.gen == g && t.load(a) == expected; {
		s.cond.Wait()
	}
	s.waiters.Add(-1)
	s.mu.Unlock()
}

// Wake implements Parker: wake every waiter in a's shard. With no waiters
// registered it is one atomic load — cheap enough for release paths that
// almost never have parked waiters.
//
//sprwl:model
func (t *Table) Wake(a memmodel.Addr) {
	s := &t.shards[shardIndex(a)]
	if s.waiters.Load() == 0 {
		return
	}
	s.mu.Lock()
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Waiters reports the number of currently registered waiters across all
// shards, for tests and diagnostics.
func (t *Table) Waiters() int {
	var n int64
	for i := range t.shards {
		n += t.shards[i].waiters.Load()
	}
	return int(n)
}
