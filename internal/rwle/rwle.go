// Package rwle implements Hardware Read-Write Lock Elision (RW-LE) of
// Felber, Issa, Matveev and Romano (EuroSys '16), the closest related work
// the paper compares against (§2, evaluated on POWER8 in Figs. 3, 4, 7).
//
// Like SpRWL, RW-LE executes read-only critical sections uninstrumented.
// Unlike SpRWL, it relies on two POWER8-only hardware features:
//
//   - suspend/resume: a writer suspends its transaction just before
//     committing and performs a *quiescence phase* — waiting for every
//     reader that was active at that moment to finish — then resumes and
//     commits. Readers advertise themselves with per-thread epoch counters
//     (odd = inside a critical section), so quiescence is a snapshot of odd
//     epochs and a wait for each to advance.
//   - rollback-only transactions (ROTs): after the HTM budget is exhausted,
//     writers retry as ROTs, which track only their write set (no read
//     capacity, no read-conflict aborts). ROTs provide no isolation among
//     themselves, so ROT writers are serialized by a writer lock — the
//     serialization visible in the paper's RW-LE commit breakdowns.
//
// The quiescence phase is what the paper blames for RW-LE's large writer
// latencies under long readers (Fig. 3): a writer cannot commit while any
// pre-existing reader is still running, and every arriving reader that
// touches a written line aborts the writer outright.
package rwle

import (
	"sprwl/internal/env"
	"sprwl/internal/locks"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwlock"
)

const (
	// DefaultHTMRetries is the hardware attempt budget before the ROT
	// path activates.
	DefaultHTMRetries = 10
	// DefaultROTRetries is the ROT attempt budget before the global-lock
	// fallback, the value the RW-LE authors (and the paper's §4) use.
	DefaultROTRetries = 5
)

// RWLE is a hardware read-write lock-elision lock.
type RWLE struct {
	e       env.Env
	threads int
	epochs  memmodel.Addr // per-thread line: odd = reader active
	wlock   locks.SpinMutex
	gl      locks.SpinMutex
	pipe    *obs.Pipeline
}

var _ rwlock.Lock = (*RWLE)(nil)

// New carves an RW-LE lock out of the arena; pipe may be nil to disable
// instrumentation.
func New(e env.Env, ar *memmodel.Arena, threads int, pipe *obs.Pipeline) *RWLE {
	return &RWLE{
		e:       e,
		threads: threads,
		epochs:  ar.AllocLines(threads),
		wlock:   locks.NewSpinMutex(e, ar.AllocLines(1)),
		gl:      locks.NewSpinMutex(e, ar.AllocLines(1)),
		pipe:    pipe,
	}
}

// Name implements rwlock.Lock.
func (*RWLE) Name() string { return "RW-LE" }

// NewHandle implements rwlock.Lock.
func (l *RWLE) NewHandle(slot int) rwlock.Handle {
	return &handle{l: l, slot: slot, ring: l.pipe.Thread(slot)}
}

func (l *RWLE) epochAddr(i int) memmodel.Addr {
	return l.epochs + memmodel.Addr(i*memmodel.LineWords)
}

type handle struct {
	l    *RWLE
	slot int
	ring *obs.Ring
}

// Read runs the critical section uninstrumented between epoch bumps,
// synchronizing with the global-lock fallback exactly like SpRWL's readers:
// advertise, check the lock, retract and wait if it is held.
func (h *handle) Read(csID int, body rwlock.Body) {
	l := h.l
	start := h.ring.Stamp(l.e)
	ea := l.epochAddr(h.slot)
	for {
		l.e.Add(ea, 1) // odd: active
		if !l.gl.IsLocked() {
			break
		}
		l.e.Add(ea, 1) // even: retract
		t0 := h.ring.Stamp(l.e)
		for l.gl.IsLocked() {
			l.e.Yield()
		}
		h.ring.Wait(obs.WaitGL, obs.Reader, csID, t0, h.ring.Stamp(l.e))
	}
	body(l.e)
	l.e.Add(ea, 1) // even: done
	h.ring.Section(obs.Reader, csID, env.ModeUninstrumented, start, h.ring.Stamp(l.e))
}

// Write tries HTM, then serialized ROTs, then the global lock. Both
// hardware modes suspend before committing and wait for the quiescence of
// all readers active at that instant.
func (h *handle) Write(csID int, body rwlock.Body) {
	l := h.l
	start := h.ring.Stamp(l.e)
	glAddr := l.gl.Addr()

	wlockAddr := l.wlock.Addr()
	attempt := func(rot bool) env.AbortCause {
		return l.e.Attempt(h.slot, env.TxOpts{ROT: rot}, func(tx env.TxAccessor) {
			if tx.Load(glAddr) != 0 {
				tx.Abort(env.AbortExplicit)
			}
			if !rot && tx.Load(wlockAddr) != 0 {
				// A ROT (or fallback) writer is active. Its loads
				// are untracked, so hardware conflict detection
				// cannot order us against it — subscribing to the
				// writer lock is what makes ROT serialization
				// safe against concurrent HTM writers. (A ROT
				// itself holds this lock, and its subscription
				// load would be untracked anyway.)
				tx.Abort(env.AbortExplicit)
			}
			body(tx)
			if !tx.Suspend(func() { h.quiesceReaders(csID, tx) }) {
				tx.Abort(env.AbortConflict)
			}
		})
	}

	for attempts := 0; attempts < DefaultHTMRetries; attempts++ {
		waited := false
		var t0 uint64
		for l.gl.IsLocked() || l.wlock.IsLocked() {
			if !waited {
				waited, t0 = true, h.ring.Stamp(l.e)
			}
			l.e.Yield()
		}
		if waited {
			h.ring.Wait(obs.WaitLock, obs.Writer, csID, t0, h.ring.Stamp(l.e))
		}
		cause := attempt(false)
		if cause == env.Committed {
			h.ring.Section(obs.Writer, csID, env.ModeHTM, start, h.ring.Stamp(l.e))
			return
		}
		h.ring.Abort(obs.Writer, csID, cause, h.ring.Stamp(l.e))
		if cause == env.AbortCapacity {
			break
		}
	}

	// ROT path: serialized among writers, unlimited read footprint.
	l.wlock.Lock()
	for attempts := 0; attempts < DefaultROTRetries; attempts++ {
		waited := false
		var t0 uint64
		for l.gl.IsLocked() {
			if !waited {
				waited, t0 = true, h.ring.Stamp(l.e)
			}
			l.e.Yield()
		}
		if waited {
			h.ring.Wait(obs.WaitGL, obs.Writer, csID, t0, h.ring.Stamp(l.e))
		}
		cause := attempt(true)
		if cause == env.Committed {
			l.wlock.Unlock()
			h.ring.Section(obs.Writer, csID, env.ModeROT, start, h.ring.Stamp(l.e))
			return
		}
		h.ring.Abort(obs.Writer, csID, cause, h.ring.Stamp(l.e))
		if cause == env.AbortCapacity {
			break
		}
	}

	// Global-lock fallback: wait out every active reader, then run
	// pessimistically. We still hold wlock, keeping ROT writers out.
	l.gl.Lock()
	acquired := h.ring.Stamp(l.e)
	h.drainReaders(csID)
	body(l.e)
	l.gl.Unlock()
	l.wlock.Unlock()
	now := h.ring.Stamp(l.e)
	h.ring.SGL(csID, acquired, now)
	h.ring.Section(obs.Writer, csID, env.ModeGL, start, now)
}

// quiesceReaders runs inside the suspended section: snapshot every thread's
// epoch and wait for all odd (active) ones to advance. Bails out as soon as
// the suspended transaction is doomed — a reader touched our write set, so
// waiting longer is pointless.
func (h *handle) quiesceReaders(csID int, tx env.TxAccessor) {
	l := h.l
	t0 := h.ring.Stamp(l.e)
	for i := 0; i < l.threads; i++ {
		if i == h.slot {
			continue
		}
		ea := l.epochAddr(i)
		snap := l.e.Load(ea)
		if snap%2 == 0 {
			continue
		}
		for l.e.Load(ea) == snap {
			if tx.Aborted() {
				h.ring.Wait(obs.WaitQuiesce, obs.Writer, csID, t0, h.ring.Stamp(l.e))
				return
			}
			l.e.Yield()
		}
	}
	h.ring.Wait(obs.WaitQuiesce, obs.Writer, csID, t0, h.ring.Stamp(l.e))
}

// drainReaders is the fallback-path wait: with the global lock held, new
// readers retract and wait, so waiting for each current epoch to advance
// (or be even) terminates.
func (h *handle) drainReaders(csID int) {
	l := h.l
	t0 := h.ring.Stamp(l.e)
	for i := 0; i < l.threads; i++ {
		if i == h.slot {
			continue
		}
		ea := l.epochAddr(i)
		snap := l.e.Load(ea)
		if snap%2 == 0 {
			continue
		}
		for l.e.Load(ea) == snap {
			l.e.Yield()
		}
	}
	h.ring.Wait(obs.WaitDrain, obs.Writer, csID, t0, h.ring.Stamp(l.e))
}
