package locks

import (
	"sprwl/internal/env"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwlock"
)

// BRLock is the Linux "Big Reader Lock" baseline [Corbet, LWN]: each thread
// owns a private mutex on its own cache line; a reader only takes its own
// mutex (no shared-line traffic between readers), while a writer first takes
// a global writer mutex and then every per-thread mutex in slot order.
// Reads scale embarrassingly well; writes cost O(threads) acquisitions —
// the trade-off visible in the paper's BRLock curves.
type BRLock struct {
	e       env.Env
	writer  SpinMutex
	perThr  memmodel.Addr // threads consecutive lines
	threads int
	pipe    *obs.Pipeline
}

var _ rwlock.Lock = (*BRLock)(nil)

// NewBRLock carves the lock out of the arena for the given thread count.
// pipe may be nil.
func NewBRLock(e env.Env, ar *memmodel.Arena, threads int, pipe *obs.Pipeline) *BRLock {
	return &BRLock{
		e:       e,
		writer:  NewSpinMutex(e, ar.AllocLines(1)),
		perThr:  ar.AllocLines(threads),
		threads: threads,
		pipe:    pipe,
	}
}

// Name implements rwlock.Lock.
func (*BRLock) Name() string { return "BRLock" }

// NewHandle implements rwlock.Lock.
func (l *BRLock) NewHandle(slot int) rwlock.Handle {
	return &brHandle{l: l, slot: slot, ring: l.pipe.Thread(slot)}
}

func (l *BRLock) threadMutex(slot int) SpinMutex {
	return NewSpinMutex(l.e, l.perThr+memmodel.Addr(slot*memmodel.LineWords))
}

type brHandle struct {
	l    *BRLock
	slot int
	ring *obs.Ring
}

func (h *brHandle) Read(csID int, body rwlock.Body) {
	start := h.ring.Stamp(h.l.e)
	m := h.l.threadMutex(h.slot)
	blockingLock(h.l.e, m, h.ring, obs.Reader, csID)
	body(h.l.e)
	m.Unlock()
	h.ring.Section(obs.Reader, csID, env.ModePessimistic, start, h.ring.Stamp(h.l.e))
}

func (h *brHandle) Write(csID int, body rwlock.Body) {
	start := h.ring.Stamp(h.l.e)
	l := h.l
	blockingLock(l.e, l.writer, h.ring, obs.Writer, csID)
	for i := 0; i < l.threads; i++ {
		blockingLock(l.e, l.threadMutex(i), h.ring, obs.Writer, csID)
	}
	body(l.e)
	for i := l.threads - 1; i >= 0; i-- {
		l.threadMutex(i).Unlock()
	}
	l.writer.Unlock()
	h.ring.Section(obs.Writer, csID, env.ModePessimistic, start, h.ring.Stamp(l.e))
}
