package core

import (
	"sprwl/internal/obs"
	"sprwl/internal/rwlock"
)

// Explicit two-phase acquisition, the building block for multi-lock spans
// (package locktable). A span holds several SpRWL locks at once — something
// the closure API cannot express — so each handle also exposes the paper's
// two always-correct per-lock phases as begin/end pairs:
//
//   - AcquireRead/ReleaseRead: the Alg. 1 uninstrumented-reader handshake
//     (flag, check the fallback lock, retract-and-wait if held). The §3.2
//     scheduling refinements and the §3.4 HTM-first attempt are skipped:
//     they are per-lock throughput heuristics keyed on transient per-slot
//     state, and a span must hold only states whose release obligations
//     survive across the acquisition of further locks.
//   - AcquireWrite/ReleaseWrite: the Alg. 1 pessimistic writer phase (take
//     the fallback lock, drain active readers). Hardware attempts are not
//     used: one HTM transaction cannot span the commit checks of several
//     locks' acquisition *phases* — the span holds each lock from its
//     acquisition until the span ends, which best-effort HTM cannot
//     guarantee across aborts.
//
// Deadlock discipline is the caller's: a thread acquiring several locks
// must acquire them in one globally agreed order (locktable uses ascending
// shard index) and must not interleave spans with closure-style sections on
// locks it already holds. Within one lock the phases compose with every
// concurrent closure-style section: span readers publish through the same
// reader indicators the commit-time check scans, and a held fallback lock
// aborts HTM writers through their subscription load.

// SpanHandle is the extension interface implemented by every SpRWL handle:
// the closure API plus explicit two-phase acquisition for multi-lock spans.
// The usage contract is rwlock.Handle's (one goroutine per handle), and the
// phases of one handle must be strictly nested begin/end pairs.
type SpanHandle interface {
	rwlock.Handle

	// AcquireRead enters this lock as an uninstrumented reader: after it
	// returns, and until ReleaseRead, every writer either drains this
	// reader (fallback path) or self-aborts on it (commit-time check).
	AcquireRead(csID int)

	// ReleaseRead retires the reader flag published by AcquireRead.
	ReleaseRead(csID int)

	// AcquireWrite acquires this lock exclusively on the pessimistic
	// path: fallback lock taken, active readers drained.
	AcquireWrite(csID int)

	// ReleaseWrite releases the fallback lock taken by AcquireWrite.
	ReleaseWrite(csID int)
}

var _ SpanHandle = (*handle)(nil)

// AcquireRead implements SpanHandle: the Alg. 1 flag-and-check handshake,
// without the scheduling refinements (see the file comment). The section
// event for a span is recorded by the span owner, not per lock.
func (h *handle) AcquireRead(csID int) {
	h.flagReaderAndSyncGL(csID)
}

// ReleaseRead implements SpanHandle. The span body's loads are ordered
// before the flag reset by the environment's sequentially consistent
// accesses, exactly as in the closure-style read path.
func (h *handle) ReleaseRead(csID int) {
	h.unflagReader()
}

// AcquireWrite implements SpanHandle: advertise the writer (so arriving
// readers defer to it, §3.2.1), take the fallback lock, drain readers. The
// advertisement stays up for the whole span — a reader that arrives after
// us must not start a section we would then have to drain again.
func (h *handle) AcquireWrite(csID int) {
	l := h.l
	if l.opts.ReaderSync && h.slot >= 0 {
		l.e.Store(l.clockWAddr(h.slot), l.est.EndTime(csID, l.e.Now()))
		l.e.Store(l.stateAddr(h.slot), stateWriter)
	}
	h.lockGL(csID)
	h.spanGLAt = h.ring.Stamp(l.e)
	h.waitForReaders(csID)
}

// ReleaseWrite implements SpanHandle: restore BRAVO read bias, release the
// fallback lock (whose unlock wakes parked waiters), and retire the writer
// advertisement — store-then-wake, the phase protocol synchronized readers
// park on.
func (h *handle) ReleaseWrite(csID int) {
	l := h.l
	h.restoreReaderBias()
	l.gl.Unlock()
	h.ring.SGL(csID, h.spanGLAt, h.ring.Stamp(l.e))
	if l.opts.ReaderSync && h.slot >= 0 {
		l.e.Store(l.stateAddr(h.slot), stateEmpty)
		l.wakes.Wake(l.stateAddr(h.slot))
		if l.wakes.Enabled() {
			h.ring.Park(obs.ParkWake, obs.Writer, csID, h.ring.Stamp(l.e), 0)
		}
	}
}
