// Package rwlocktest is a reusable conformance suite for rwlock.Lock
// implementations. Every lock in this repository — SpRWL and all its
// variants, TLE, RW-LE, and the pessimistic baselines — must pass it; the
// per-package tests invoke Run with a factory.
//
// The suite checks the read-write lock contract, not performance:
//
//   - writer-writer mutual exclusion (no lost updates under read-modify-
//     write storms);
//   - reader isolation (a reader never observes a writer's partial update);
//   - read-read concurrency (two readers must be able to overlap);
//   - writer progress under a continuous stream of readers;
//   - reader progress under a continuous stream of writers;
//   - body retry discipline (bodies may run multiple times, but effects
//     commit exactly once).
//
// Each probe's concurrent phase runs under a wall-clock guard, so a lock
// that hangs fails the named probe within seconds.
package rwlocktest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/hang"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
)

// Factory builds the lock under test over the given environment, carving
// state from ar, for the given thread count.
type Factory func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock

// Config tunes the suite.
type Config struct {
	// Threads is the worker count used by the concurrent checks
	// (default 4, minimum 2).
	Threads int
	// Rounds scales the iteration counts (default 150, or 40 under
	// -short so the full matrix stays fast under -race).
	Rounds int
	// HTMConfig overrides the space configuration (Threads/Words are
	// always set by the suite).
	HTMConfig htm.Config
}

func (c *Config) defaults() {
	if c.Threads < 2 {
		c.Threads = 4
	}
	if c.Rounds <= 0 {
		c.Rounds = 150
		if testing.Short() {
			c.Rounds = 40
		}
	}
}

// Run executes the full conformance suite against the factory.
func Run(t *testing.T, f Factory, cfg Config) {
	cfg.defaults()
	t.Run("WriterMutualExclusion", func(t *testing.T) { writerMutualExclusion(t, f, cfg) })
	t.Run("ReaderIsolation", func(t *testing.T) { readerIsolation(t, f, cfg) })
	t.Run("ReadersOverlap", func(t *testing.T) { readersOverlap(t, f, cfg) })
	t.Run("WriterProgressUnderReaders", func(t *testing.T) { writerProgress(t, f, cfg) })
	t.Run("ReaderProgressUnderWriters", func(t *testing.T) { readerProgress(t, f, cfg) })
	t.Run("EffectsCommitExactlyOnce", func(t *testing.T) { effectsOnce(t, f, cfg) })
}

// probeGuard bounds a probe's concurrent phase. Every probe finishes in
// well under a second, -race included.
const probeGuard = 10 * time.Second

// build sets up a fresh environment and lock.
func build(t *testing.T, f Factory, cfg Config) (rwlock.Lock, env.Env, *memmodel.Arena) {
	t.Helper()
	hang.CheckNotHung(t)
	hc := cfg.HTMConfig
	hc.Threads = cfg.Threads
	if hc.Words == 0 {
		hc.Words = 1 << 15
	}
	space, err := htm.NewSpace(hc)
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	l := f(e, ar, cfg.Threads) // lock state first, test data after
	return l, e, ar
}

func writerMutualExclusion(t *testing.T, f Factory, cfg Config) {
	l, e, ar := build(t, f, cfg)
	ctr := ar.AllocLines(1)
	var wg sync.WaitGroup
	for slot := 0; slot < cfg.Threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < cfg.Rounds; i++ {
				h.Write(0, func(acc memmodel.Accessor) {
					v := acc.Load(ctr)
					runtime.Gosched() // widen any exclusion hole
					acc.Store(ctr, v+1)
				})
			}
		}(slot)
	}
	hang.Guard(t, probeGuard, wg.Wait)
	if got, want := e.Load(ctr), uint64(cfg.Threads*cfg.Rounds); got != want {
		t.Fatalf("%s: counter = %d, want %d (lost updates)", l.Name(), got, want)
	}
}

func readerIsolation(t *testing.T, f Factory, cfg Config) {
	l, _, ar := build(t, f, cfg)
	x, y := ar.AllocLines(1), ar.AllocLines(1)
	var wg sync.WaitGroup
	for slot := 0; slot < cfg.Threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < cfg.Rounds; i++ {
				if slot == 0 {
					h.Write(0, func(acc memmodel.Accessor) {
						v := acc.Load(x) + 1
						acc.Store(x, v)
						runtime.Gosched()
						acc.Store(y, v)
					})
				} else {
					// Extract inside, assert outside: the body may
					// re-execute on abort, so the assertion must only
					// judge the committed execution's values.
					var vx, vy uint64
					h.Read(1, func(acc memmodel.Accessor) {
						vx, vy = acc.Load(x), acc.Load(y)
					})
					if vx != vy {
						t.Errorf("%s: torn read %d vs %d", l.Name(), vx, vy)
					}
				}
			}
		}(slot)
	}
	hang.Guard(t, probeGuard, wg.Wait)
}

// overlapWindow bounds how long readersOverlap waits for two readers to
// meet. It sits inside probeGuard, so a lock that forbids overlap fails
// as "never overlapped", not as a hang.
const overlapWindow = probeGuard / 2

func readersOverlap(t *testing.T, f Factory, cfg Config) {
	l, _, _ := build(t, f, cfg)
	var met bool
	hang.Guard(t, probeGuard, func() { met = readersMeet(l, cfg.Threads, overlapWindow) })
	if !met {
		t.Fatalf("%s: readers never overlapped in %v", l.Name(), overlapWindow)
	}
}

// readersMeet runs threads readers until two reader bodies are active at
// once or window passes, and reports whether they met. The readers loop
// on the clock, not for a fixed count: under load one reader could finish
// any fixed number of rounds before another starts.
func readersMeet(l rwlock.Lock, threads int, window time.Duration) bool {
	deadline := time.Now().Add(window)
	var active, maxActive atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for maxActive.Load() < 2 && time.Now().Before(deadline) {
				// The side effects below are the point of this test: it
				// measures whether two reader bodies are ever active at
				// once. The body performs no Accessor operation, so a
				// hardware attempt has no abort point inside it and the
				// Add(+1)/Add(-1) pair always runs to completion.
				h.Read(0, func(acc memmodel.Accessor) {
					// Not idempotent on purpose: the overlap counter must
					// tick on every execution, committed or not, and
					// re-execution only ever raises maxActive toward the
					// value the test asserts.
					n := active.Add(1)
					// Max-tracking CAS loop on the probe counter: it is
					// monotone, so replays cannot corrupt the verdict.
					for o := maxActive.Load(); n > o; o = maxActive.Load() {
						if maxActive.CompareAndSwap(o, n) {
							break
						}
					}
					runtime.Gosched()
					active.Add(-1)
				})
			}
		}(slot)
	}
	wg.Wait()
	return maxActive.Load() >= 2
}

func writerProgress(t *testing.T, f Factory, cfg Config) {
	l, _, _ := build(t, f, cfg)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for slot := 1; slot < cfg.Threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Read(0, func(acc memmodel.Accessor) {})
			}
		}(slot)
	}
	hang.Guard(t, probeGuard, func() { // the guard is the starvation detector
		h := l.NewHandle(0)
		for i := 0; i < 30; i++ {
			h.Write(1, func(acc memmodel.Accessor) {})
		}
		close(stop)
		wg.Wait()
	})
}

func readerProgress(t *testing.T, f Factory, cfg Config) {
	l, _, ar := build(t, f, cfg)
	data := ar.AllocLines(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for slot := 1; slot < cfg.Threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Write(0, func(acc memmodel.Accessor) { acc.Store(data, uint64(i)) })
			}
		}(slot)
	}
	hang.Guard(t, probeGuard, func() {
		h := l.NewHandle(0)
		for i := 0; i < 30; i++ {
			h.Read(1, func(acc memmodel.Accessor) { _ = acc.Load(data) })
		}
		close(stop)
		wg.Wait()
	})
}

func effectsOnce(t *testing.T, f Factory, cfg Config) {
	// Force heavy retrying via spurious aborts: every committed section's
	// effect must still apply exactly once.
	cfg.HTMConfig.SpuriousEvery = 7
	l, e, ar := build(t, f, cfg)
	ctr := ar.AllocLines(1)
	var wg sync.WaitGroup
	for slot := 0; slot < cfg.Threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < cfg.Rounds; i++ {
				h.Write(0, func(acc memmodel.Accessor) {
					acc.Store(ctr, acc.Load(ctr)+1)
				})
			}
		}(slot)
	}
	hang.Guard(t, probeGuard, wg.Wait)
	if got, want := e.Load(ctr), uint64(cfg.Threads*cfg.Rounds); got != want {
		t.Fatalf("%s: counter = %d, want %d (re-executed effects leaked)", l.Name(), got, want)
	}
}
