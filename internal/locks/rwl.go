package locks

import (
	"sprwl/internal/env"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/park"
	"sprwl/internal/rwlock"
)

// RWL is the pthread-style read-write lock baseline ("RWL" in the paper's
// plots): a single word holding a reader count, a waiting-writer count, and
// a writer-active flag. Writers are preferred — arriving readers defer to
// waiting writers — which avoids writer starvation, matching the behaviour
// of glibc's writer-preferring configuration the paper's baseline exhibits
// under contention. All threads spin on one cache line, which is exactly
// the scalability bottleneck the paper's RWL curves show.
type RWL struct {
	e    env.Env
	word memmodel.Addr
	hub  park.Hub
	pipe *obs.Pipeline
}

const (
	rwlReaderUnit   = uint64(1)
	rwlReaderMask   = (uint64(1) << 20) - 1
	rwlWaitingUnit  = uint64(1) << 20
	rwlWaitingMask  = ((uint64(1) << 20) - 1) << 20
	rwlActiveWriter = uint64(1) << 40
)

var _ rwlock.Lock = (*RWL)(nil)

// NewRWL carves the lock out of the arena. pipe may be nil.
func NewRWL(e env.Env, ar *memmodel.Arena, pipe *obs.Pipeline) *RWL {
	return &RWL{e: e, word: ar.AllocLines(1), hub: park.HubFor(e), pipe: pipe}
}

// Name implements rwlock.Lock.
func (*RWL) Name() string { return "RWL" }

// NewHandle implements rwlock.Lock.
func (l *RWL) NewHandle(slot int) rwlock.Handle {
	return &rwlHandle{l: l, slot: slot, ring: l.pipe.Thread(slot)}
}

type rwlHandle struct {
	l    *RWL
	slot int
	ring *obs.Ring
}

func (h *rwlHandle) Read(csID int, body rwlock.Body) {
	start := h.ring.Stamp(h.l.e)
	l := h.l
	w := park.Waiter{E: l.e, P: l.hub.Parker(), Pol: park.Pessimistic()}
	for {
		x := l.e.Load(l.word)
		if x&(rwlWaitingMask|rwlActiveWriter) == 0 {
			if l.e.CAS(l.word, x, x+rwlReaderUnit) {
				break
			}
			continue
		}
		w.Pause(l.word, x, 0)
	}
	w.Report(h.ring, obs.WaitLock, obs.Reader, csID)
	body(l.e)
	// readers--; the last reader out wakes writers waiting for the count
	// to drain (store-then-wake).
	if l.e.Add(l.word, ^uint64(0))&rwlReaderMask == 0 {
		l.hub.Wake(l.word)
	}
	h.ring.Section(obs.Reader, csID, env.ModePessimistic, start, h.ring.Stamp(l.e))
}

func (h *rwlHandle) Write(csID int, body rwlock.Body) {
	start := h.ring.Stamp(h.l.e)
	l := h.l
	l.e.Add(l.word, rwlWaitingUnit)
	w := park.Waiter{E: l.e, P: l.hub.Parker(), Pol: park.Pessimistic()}
	for {
		x := l.e.Load(l.word)
		if x&rwlReaderMask == 0 && x&rwlActiveWriter == 0 {
			if l.e.CAS(l.word, x, x-rwlWaitingUnit+rwlActiveWriter) {
				break
			}
			continue
		}
		w.Pause(l.word, x, 0)
	}
	w.Report(h.ring, obs.WaitLock, obs.Writer, csID)
	body(l.e)
	// Clear the active flag and wake both blocked readers and the next
	// writer (store-then-wake).
	l.e.Add(l.word, ^(rwlActiveWriter)+1)
	l.hub.Wake(l.word)
	h.ring.Section(obs.Writer, csID, env.ModePessimistic, start, h.ring.Stamp(l.e))
}
