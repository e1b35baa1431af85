package sim

import (
	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// Env is the simulator's implementation of env.Env. One Env serves every
// logical thread: because the scheduler token strictly serializes worker
// execution, the engine always knows which thread is calling, and charges
// that thread's virtual clock before performing the operation on the
// underlying space.
//
// Calls made before Run (provisioning) are charged to no one and execute
// directly.
type Env struct {
	eng *Engine
}

var _ env.Env = (*Env)(nil)

func (v *Env) running() bool { return v.eng.cur != nil }

// Load implements env.Env.
func (v *Env) Load(a memmodel.Addr) uint64 {
	e := v.eng
	if v.running() {
		e.charge(e.coh.loadCost(&e.costs, e.cur.id, memmodel.LineOf(a)))
	}
	return e.space.Load(a)
}

// Store implements env.Env.
func (v *Env) Store(a memmodel.Addr, x uint64) {
	e := v.eng
	if v.running() {
		e.charge(e.coh.storeCost(&e.costs, e.cur.id, memmodel.LineOf(a)))
	}
	e.space.Store(a, x)
}

// CAS implements env.Env.
func (v *Env) CAS(a memmodel.Addr, old, new uint64) bool {
	e := v.eng
	if v.running() {
		e.charge(e.coh.storeCost(&e.costs, e.cur.id, memmodel.LineOf(a)) + e.costs.RMWExtra)
	}
	return e.space.CAS(a, old, new)
}

// Add implements env.Env.
func (v *Env) Add(a memmodel.Addr, d uint64) uint64 {
	e := v.eng
	if v.running() {
		e.charge(e.coh.storeCost(&e.costs, e.cur.id, memmodel.LineOf(a)) + e.costs.RMWExtra)
	}
	return e.space.Add(a, d)
}

// Now implements env.Env: the calling thread's virtual clock (or the global
// maximum before Run).
func (v *Env) Now() uint64 {
	if v.running() {
		return v.eng.cur.vt
	}
	return 0
}

// WaitUntil implements env.Env: a virtual-time sleep.
func (v *Env) WaitUntil(t uint64) {
	if v.running() {
		v.eng.advanceTo(t)
	}
}

// Yield implements env.Env: one spin iteration's worth of cycles.
func (v *Env) Yield() {
	if v.running() {
		v.eng.charge(v.eng.costs.Yield)
	}
}

// Threads implements env.Env.
func (v *Env) Threads() int { return v.eng.cfg.Threads }

// Attempt implements env.Env: the transaction runs on the underlying space
// with every transactional access charged through the cost model.
func (v *Env) Attempt(slot int, opts env.TxOpts, body func(tx env.TxAccessor)) env.AbortCause {
	e := v.eng
	if !v.running() {
		return e.space.Attempt(slot, opts, body)
	}
	e.charge(e.costs.TxBegin)
	start := e.cur.vt
	cause := e.space.Attempt(slot, opts, func(tx env.TxAccessor) {
		body(&simTx{tx: tx, env: v})
	})
	if cause == env.Committed {
		e.charge(e.costs.TxCommit)
	} else {
		e.charge(e.costs.TxAbort)
	}
	if e.pipe != nil {
		e.pipe.Thread(e.cur.id).Tx(-1, cause, start, e.cur.vt)
	}
	return cause
}

// simTx wraps the space's transactional accessor, charging virtual time per
// operation.
type simTx struct {
	tx  env.TxAccessor
	env *Env
}

var _ env.TxAccessor = (*simTx)(nil)

func (s *simTx) Load(a memmodel.Addr) uint64 {
	e := s.env.eng
	e.charge(e.coh.loadCost(&e.costs, e.cur.id, memmodel.LineOf(a)))
	return s.tx.Load(a)
}

func (s *simTx) Store(a memmodel.Addr, v uint64) {
	e := s.env.eng
	e.charge(e.coh.storeCost(&e.costs, e.cur.id, memmodel.LineOf(a)))
	s.tx.Store(a, v)
}

func (s *simTx) Abort(cause env.AbortCause) { s.tx.Abort(cause) }

func (s *simTx) Aborted() bool { return s.tx.Aborted() }

func (s *simTx) Suspend(fn func()) bool { return s.tx.Suspend(fn) }
