// Package tle implements plain transactional lock elision, the "TLE"
// baseline of the paper's evaluation: every critical section — read-only or
// updating — runs as a best-effort hardware transaction subscribed to a
// single global fallback lock, with the paper's retry policy (10 attempts,
// immediate fallback on a capacity abort).
//
// TLE is the foil for SpRWL's headline result: read-only sections larger
// than the HTM capacity cannot commit in hardware, so TLE degrades to the
// serial fallback exactly where SpRWL's uninstrumented readers keep
// scaling (Figs. 3 and 4).
package tle

import (
	"sprwl/internal/env"
	"sprwl/internal/locks"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwlock"
)

// DefaultRetries is the paper's hardware attempt budget.
const DefaultRetries = 10

// TLE is a transactional-lock-elision lock.
type TLE struct {
	e    env.Env
	gl   locks.SpinMutex
	pipe *obs.Pipeline
}

var _ rwlock.Lock = (*TLE)(nil)

// New carves a TLE lock out of the arena; pipe may be nil to disable
// instrumentation.
func New(e env.Env, ar *memmodel.Arena, pipe *obs.Pipeline) *TLE {
	return &TLE{
		e:    e,
		gl:   locks.NewSpinMutex(e, ar.AllocLines(1)),
		pipe: pipe,
	}
}

// Name implements rwlock.Lock.
func (*TLE) Name() string { return "TLE" }

// NewHandle implements rwlock.Lock.
func (l *TLE) NewHandle(slot int) rwlock.Handle {
	return &handle{l: l, slot: slot, ring: l.pipe.Thread(slot)}
}

type handle struct {
	l    *TLE
	slot int
	ring *obs.Ring
}

func (h *handle) Read(csID int, body rwlock.Body) { h.run(obs.Reader, csID, body) }

func (h *handle) Write(csID int, body rwlock.Body) { h.run(obs.Writer, csID, body) }

// run elides the critical section: attempt in hardware with the lock
// subscribed; after the budget (or a capacity abort) execute under the
// global lock.
func (h *handle) run(rw uint8, csID int, body rwlock.Body) {
	l := h.l
	start := h.ring.Stamp(l.e)
	glAddr := l.gl.Addr()
	for attempts := 0; attempts < DefaultRetries; {
		waited := false
		var t0 uint64
		for l.gl.IsLocked() {
			if !waited {
				waited, t0 = true, h.ring.Stamp(l.e)
			}
			l.e.Yield()
		}
		if waited {
			h.ring.Wait(obs.WaitGL, rw, csID, t0, h.ring.Stamp(l.e))
		}
		cause := l.e.Attempt(h.slot, env.TxOpts{}, func(tx env.TxAccessor) {
			if tx.Load(glAddr) != 0 {
				tx.Abort(env.AbortExplicit)
			}
			body(tx)
		})
		if cause == env.Committed {
			h.ring.Section(rw, csID, env.ModeHTM, start, h.ring.Stamp(l.e))
			return
		}
		h.ring.Abort(rw, csID, cause, h.ring.Stamp(l.e))
		if cause == env.AbortCapacity {
			break
		}
		attempts++
	}
	l.gl.Lock()
	acquired := h.ring.Stamp(l.e)
	body(l.e)
	l.gl.Unlock()
	now := h.ring.Stamp(l.e)
	h.ring.SGL(csID, acquired, now)
	h.ring.Section(rw, csID, env.ModeGL, start, now)
}
