package rwlocktest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwle"
	"sprwl/internal/rwlock"
	"sprwl/internal/tle"
)

// TestElidedSectionsSubscribe: a hardware-elided section must subscribe to
// the fallback lock before its body runs. The elided section starts while
// the lock is free and stalls inside its body; a writer pinned to the
// fallback path then takes the lock and stores x but not yet y. A section
// that subscribed at begin is doomed by the lock acquisition and unwinds at
// its next load. One that subscribes lazily, at commit, runs on and reads
// the torn pair: a zombie body the commit-time check stops too late (the
// lazy-subscription hazard of Dice et al., arXiv 1407.6968).
//
// RW-LE readers never elide (they run uninstrumented behind an epoch the
// fallback writer drains), so only its writers are covered.
func TestElidedSectionsSubscribe(t *testing.T) {
	read := func(h rwlock.Handle, body rwlock.Body) { h.Read(0, body) }
	write := func(h rwlock.Handle, body rwlock.Body) { h.Write(0, body) }
	tleFactory := func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return tle.New(e, ar, nil)
	}
	rwleFactory := func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return rwle.New(e, ar, threads, nil)
	}
	for _, tc := range []struct {
		name string
		f    Factory
		run  func(rwlock.Handle, rwlock.Body)
	}{
		{"SpRWL/Read", coreFactory(core.DefaultOptions), read},
		{"SpRWL/Write", coreFactory(core.DefaultOptions), write},
		{"SpRWL-NoSched/Read", coreFactory(core.NoSchedOptions), read},
		{"SpRWL-NoSched/Write", coreFactory(core.NoSchedOptions), write},
		{"TLE/Read", tleFactory, read},
		{"TLE/Write", tleFactory, write},
		{"RW-LE/Write", rwleFactory, write},
	} {
		t.Run(tc.name, func(t *testing.T) { elidedSectionSubscribes(t, tc.f, tc.run) })
	}
}

func elidedSectionSubscribes(t *testing.T, f Factory, run func(rwlock.Handle, rwlock.Body)) {
	space := htm.MustNewSpace(htm.Config{Threads: 2, Words: 1 << 15})
	// One read and one write line: every hardware attempt of slot 0's
	// writer aborts on capacity before it signals, so the signalling
	// execution is the fallback one.
	space.SetSlotCapacity(0, 1, 1)
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	l := f(e, ar, 2)
	x, y, pad := ar.AllocLines(1), ar.AllocLines(1), ar.AllocLines(1)

	// await bounds every wait, so a missed signal fails the subtest
	// instead of hanging it.
	await := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Errorf("%s: timed out waiting for %s", l.Name(), what)
		}
	}
	entered, stored, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var enterOnce, storeOnce, releaseOnce sync.Once
	var torn atomic.Int64

	elidedDone := make(chan struct{})
	go func() {
		defer close(elidedDone)
		run(l.NewHandle(1), func(acc memmodel.Accessor) {
			// Deferred, so an attempt that unwinds also releases the
			// writer.
			defer releaseOnce.Do(func() { close(release) })
			enterOnce.Do(func() { close(entered) })
			await(stored, "the fallback writer's first store")
			if acc.Load(x) != acc.Load(y) {
				torn.Add(1)
			}
		})
	}()
	await(entered, "the elided section's body")

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		l.NewHandle(0).Write(1, func(acc memmodel.Accessor) {
			acc.Store(x, 1)
			acc.Store(pad, 1) // a second write line: hardware attempts abort here
			storeOnce.Do(func() { close(stored) })
			await(release, "the elided section to finish or unwind")
			acc.Store(y, 1)
		})
	}()
	await(writerDone, "the fallback writer")
	await(elidedDone, "the elided section")
	if n := torn.Load(); n != 0 {
		t.Errorf("%s: an elided body read x != y %d time(s) while the fallback writer held the lock: its attempt did not subscribe before the body", l.Name(), n)
	}
}
