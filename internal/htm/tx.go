package htm

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// Transaction lifecycle states, packed into the low bits of Tx.state; a doom
// cause is packed alongside so that state and cause change atomically. The
// high half of Tx.state holds the attempt's epoch (readtable.go).
const (
	stInactive uint32 = iota
	stActive
	stCommitting
	stDoomed
)

const (
	stateBits  = 8
	stateMask  = (1 << stateBits) - 1
	causeShift = stateBits
	epochShift = 32
)

func packState(st uint32, cause env.AbortCause) uint32 {
	return st | uint32(cause)<<causeShift
}

// stateWord is the state word for the owner's current attempt with the given
// packed state.
func (t *Tx) stateWord(packed uint32) uint64 {
	return uint64(t.epoch)<<epochShift | uint64(packed)
}

// Tx is a single thread slot's (reusable) transaction descriptor. Only its
// owning thread writes it, except for the state word, which conflicting
// threads CAS to doom it; they also read the read table to find the lines
// the attempt has read.
type Tx struct {
	// The words other threads read sit on a cache line of their own. The
	// owner writes them only when an attempt begins or ends and when the
	// read table grows; sharing a line with the fields below, which it
	// writes on every access, would make each scan of this slot miss.
	_ cacheLinePad
	// state holds the attempt's epoch in its high half and the packed
	// lifecycle state and doom cause in its low half.
	state atomic.Uint64
	// reads is the published read set (readtable.go). Its live entries
	// carry the epoch in state.
	reads atomic.Pointer[readTable]
	_     cacheLinePad

	space *Space
	slot  int
	// counted records that the slot has raised Space.used past itself.
	counted bool
	// epoch numbers the current attempt, as published in state. The read
	// table, the write set and the write log stamp their entries with it.
	epoch  uint32
	nreads int // lines in the current attempt's read set

	rot       bool
	suspended bool

	// log buffers this attempt's stores in program order and writeSet
	// tracks the lines written. Both are flat epoch-stamped structures
	// (see sets.go), emptied in O(1) by begin's epoch bump.
	log      writeLog
	writeSet lineSet
}

// cacheLinePad separates fields that different threads write.
type cacheLinePad [64]byte

var _ env.TxAccessor = (*Tx)(nil)

// abortPanic unwinds a transactional attempt body; it never escapes Attempt.
type abortPanic struct{ cause env.AbortCause }

// ownerReleaseSpins bounds how long a line acquirer polls for a doomed
// owner's release before giving up and aborting itself; see acquireLine.
const ownerReleaseSpins = 128

// doom tries to move the transaction from Active to Doomed with the given
// cause. It reports whether the transaction is now (or was already) doomed
// or inactive; false means the transaction won the race to its commit point
// (or is mid-cleanup) and must be treated as serialized before the caller.
func (t *Tx) doom(cause env.AbortCause) bool {
	for {
		st := t.state.Load()
		switch uint32(st) & stateMask {
		case stActive:
			if t.state.CompareAndSwap(st, st>>epochShift<<epochShift|uint64(packState(stDoomed, cause))) {
				return true
			}
		case stDoomed, stInactive:
			return true
		case stCommitting:
			return false
		}
	}
}

// doomed reports whether the transaction has been doomed.
func (t *Tx) doomed() bool { return uint32(t.state.Load())&stateMask == stDoomed }

func (t *Tx) doomCause() env.AbortCause {
	return env.AbortCause(uint32(t.state.Load()) >> causeShift)
}

// nextEpoch moves the descriptor to a fresh attempt's epoch. The read
// table, the write set and the write log count an entry as live only while
// its stamp is the current epoch, so the bump empties all three in O(1). No
// attempt runs in epoch 0, so a zeroed stamp is always free. When the epoch
// wraps, all three stamp arrays are zeroed, so a stamp written 2^32
// attempts ago cannot alias the new epoch. It runs while the slot is
// inactive, when scanners skip the read table.
func (t *Tx) nextEpoch() {
	t.epoch++
	if t.epoch == 0 {
		rt := t.reads.Load()
		for i := range rt.entries {
			rt.entries[i].Store(0)
		}
		clear(t.writeSet.stamps)
		clear(t.log.cstamp)
		t.epoch = 1
	}
}

// begin arms the descriptor for a fresh attempt.
func (t *Tx) begin(opts env.TxOpts) {
	if uint32(t.state.Load())&stateMask != stInactive {
		panic(fmt.Sprintf("htm: nested transaction on slot %d", t.slot))
	}
	if !t.counted {
		t.space.countSlot(t.slot)
		t.counted = true
	}
	t.rot = opts.ROT
	t.suspended = false
	t.nextEpoch()
	t.log.reset()
	t.writeSet.reset()
	t.nreads = 0
	t.state.Store(t.stateWord(packState(stActive, env.Committed)))
}

// fail dooms the transaction itself (preserving an earlier doom cause if one
// raced in) and unwinds the attempt body.
func (t *Tx) fail(cause env.AbortCause) {
	t.doom(cause)
	panic(abortPanic{cause: t.doomCause()})
}

// checkAlive unwinds the attempt if the transaction has been doomed by a
// conflicting access, and applies spurious-abort injection.
func (t *Tx) checkAlive() {
	if t.doomed() {
		panic(abortPanic{cause: t.doomCause()})
	}
	if every := t.space.cfg.SpuriousEvery; every != 0 {
		if t.space.spurCtr.Add(1)%every == 0 {
			t.fail(env.AbortSpurious)
		}
	}
}

// Load implements env.TxAccessor. A non-ROT load of a new line publishes
// the line in the read set before it loads the line's owner and the word,
// so a conflicting writer or uninstrumented store either finds the entry
// and dooms this attempt or is seen by those loads (see doomReaders); a
// conflicting transactional writer is then doomed, requester-wins. ROT
// loads are untracked, exactly like POWER8 rollback-only transactions: they
// carry no capacity cost and a later store to the line does not abort the
// ROT.
func (t *Tx) Load(a memmodel.Addr) uint64 {
	if t.suspended {
		return t.suspendedLoad(a)
	}
	t.checkAlive()
	s := t.space
	l := memmodel.LineOf(a)
	if !t.log.empty() {
		// Read-your-writes: the direct-mapped cache resolves the common
		// case in one probe; a collision-evicted entry falls back to a
		// newest-first log scan, gated on line ownership so unwritten
		// addresses never pay for it.
		if v, ok := t.log.cached(a, t.epoch); ok {
			return v
		}
		if t.writeSet.contains(l, t.epoch) {
			if v, ok := t.log.latest(a, t.epoch); ok {
				return v
			}
			// The line is ours but this word was never stored:
			// memory still holds its pre-transactional value, and
			// owning the line means no tracking is needed.
			return t.validated(atomic.LoadUint64(s.word(a)))
		}
	}
	if t.rot {
		// Untracked load: behave like an uninstrumented load
		// (a remote read still aborts a conflicting writer in
		// hardware), but without touching our read set.
		return t.rotLoad(a, l)
	}
	// The probe inlines here, so a repeat access costs no call.
	e := readEntry(t.epoch, l)
	rt := t.reads.Load()
	if i, ok := rt.find(e); !ok {
		t.addRead(rt, i, e)
		t.resolveWriter(s.line(l))
	}
	return t.validated(atomic.LoadUint64(s.word(a)))
}

// validated returns v, a word just loaded from memory, unless the
// transaction was doomed before or during the load, in which case the
// attempt unwinds. Hardware aborts a transaction the moment a conflicting
// access invalidates its footprint, so a transactional body never observes
// an inconsistent snapshot; the emulation dooms asynchronously, and this
// re-check closes the window between the last checkAlive and the load. It
// suffices because every committer that overwrites a line in our read or
// write set dooms us before its write-back (acquireLine, doomLineUsers), so
// a value reflecting such a commit is only ever loaded once we are doomed.
func (t *Tx) validated(v uint64) uint64 {
	if t.doomed() {
		panic(abortPanic{cause: t.doomCause()})
	}
	return v
}

// rotLoad performs an untracked transactional load.
func (t *Tx) rotLoad(a memmodel.Addr, l memmodel.Line) uint64 {
	s := t.space
	lm := s.line(l)
	for {
		// Ownership before value, as in Space.Load.
		w := lm.writer.Load()
		if w == 0 || int(w-1) == t.slot || s.txs[w-1].doom(env.AbortConflict) {
			return atomic.LoadUint64(s.word(a))
		}
		for lm.writer.Load() == w {
			runtime.Gosched()
			t.checkAlive()
		}
	}
}

// resolveWriter dooms a conflicting transactional writer of a line we just
// added to our read set, waiting out a committing one. If waiting, the
// committed value will be observed by our subsequent load, which is exactly
// the serialization hardware provides.
func (t *Tx) resolveWriter(lm *lineMeta) {
	for {
		w := lm.writer.Load()
		if w == 0 || int(w-1) == t.slot {
			return
		}
		other := &t.space.txs[w-1]
		if other.doom(env.AbortConflict) {
			return
		}
		for lm.writer.Load() == w {
			runtime.Gosched()
			t.checkAlive()
		}
	}
}

// Store implements env.TxAccessor. The write is buffered; the line's writer
// ownership is published before conflicting readers are doomed, closing the
// race with concurrent read-set insertions.
func (t *Tx) Store(a memmodel.Addr, v uint64) {
	if t.suspended {
		t.space.Store(a, v)
		return
	}
	t.checkAlive()
	s := t.space
	l := memmodel.LineOf(a)
	if !t.writeSet.contains(l, t.epoch) {
		if cap := s.caps[t.slot].write; cap > 0 && t.writeSet.len() >= cap {
			t.fail(env.AbortCapacity)
		}
		t.acquireLine(l)
		t.writeSet.add(l, t.epoch)
	}
	t.log.store(a, v, t.epoch)
}

// acquireLine takes exclusive transactional ownership of line l, dooming
// conflicting transactions requester-wins and waiting out committing ones.
func (t *Tx) acquireLine(l memmodel.Line) {
	s := t.space
	lm := s.line(l)
	for {
		w := lm.writer.Load()
		switch {
		case w == 0:
			if lm.writer.CompareAndSwap(0, uint64(t.slot+1)) {
				// Ownership published; now doom every reader
				// (other than ourselves) that published the
				// line before us.
				s.doomReaders(l, t.slot)
				return
			}
		case int(w-1) == t.slot:
			return
		default:
			other := &s.txs[w-1]
			if !other.doom(env.AbortConflict) {
				// The owner is committing: write-back is
				// straight-line code, so this wait is short.
				for lm.writer.Load() == w {
					runtime.Gosched()
					t.checkAlive()
				}
				continue
			}
			// The owner is doomed but has not yet unwound and
			// released the line. On the real runtime it does so
			// within a few of its own instructions, so poll
			// briefly (requester wins). The poll must stay bounded:
			// under the simulator's serialized scheduling the owner
			// cannot run while we hold the token, and an unbounded
			// wait would deadlock — past the bound the conflict
			// costs us the transaction instead, which is an equally
			// faithful HTM outcome for a write-write conflict.
			for i := 0; i < ownerReleaseSpins; i++ {
				if lm.writer.Load() != w {
					break
				}
				runtime.Gosched()
				t.checkAlive()
			}
			if lm.writer.Load() == w {
				t.fail(env.AbortConflict)
			}
		}
	}
}

// suspendedLoad is an uninstrumented load issued from a suspended section.
// Unlike Space.Load it must not doom the suspended transaction itself when
// reading a line that transaction has written: per POWER8 semantics it
// returns the pre-transactional (memory) value instead.
func (t *Tx) suspendedLoad(a memmodel.Addr) uint64 {
	s := t.space
	lm := s.line(memmodel.LineOf(a))
	for {
		// Ownership before value, as in Space.Load.
		w := lm.writer.Load()
		if w == 0 || int(w-1) == t.slot || s.txs[w-1].doom(env.AbortConflict) {
			return atomic.LoadUint64(s.word(a))
		}
		for lm.writer.Load() == w {
			runtime.Gosched()
		}
	}
}

// Abort implements env.TxAccessor.
func (t *Tx) Abort(cause env.AbortCause) {
	t.fail(cause)
}

// Aborted implements env.TxAccessor: a non-unwinding doom check, usable from
// suspended sections.
func (t *Tx) Aborted() bool { return t.doomed() }

// Suspend implements env.TxAccessor, modelling POWER8 suspend/resume: fn
// runs with this transaction's accesses behaving as uninstrumented ones,
// while the transaction remains doomable by conflicting accesses. It reports
// whether the transaction is still alive at resume.
func (t *Tx) Suspend(fn func()) bool {
	if t.suspended {
		panic("htm: nested Suspend")
	}
	t.suspended = true
	fn()
	t.suspended = false
	return !t.doomed()
}

// commit attempts to make the transaction's writes visible atomically.
// Moving to Committing first means every later conflict race is won by this
// transaction; write-back happens while the lines are still owned, and
// ownership is only released afterwards, so no thread can observe a torn
// commit. Write-back replays the log in program order (last store to an
// address wins), so externalization is deterministic.
func (t *Tx) commit() env.AbortCause {
	if !t.state.CompareAndSwap(t.stateWord(packState(stActive, env.Committed)), t.stateWord(packState(stCommitting, env.Committed))) {
		cause := t.doomCause()
		t.cleanup()
		return cause
	}
	s := t.space
	for i, a := range t.log.addrs {
		atomic.StoreUint64(s.word(a), t.log.vals[i])
	}
	t.cleanup()
	return env.Committed
}

// cleanup releases the written lines and retires the descriptor. The write
// set's member list holds each line exactly once, in insertion order. The
// read set needs no release: scanners skip an inactive slot, and the next
// attempt's epoch bump retires its entries.
func (t *Tx) cleanup() {
	s := t.space
	for _, l := range t.writeSet.members {
		s.line(l).writer.Store(0)
	}
	t.state.Store(t.stateWord(packState(stInactive, env.Committed)))
}

// Attempt runs body as one best-effort transaction on slot and returns
// Committed or the abort cause. Buffered stores are discarded on abort.
func (s *Space) Attempt(slot int, opts env.TxOpts, body func(tx env.TxAccessor)) (cause env.AbortCause) {
	t := &s.txs[slot]
	t.begin(opts)
	defer func() {
		if r := recover(); r != nil {
			ap, ok := r.(abortPanic)
			if !ok {
				// A non-transactional panic (a bug in the body):
				// release metadata, then propagate.
				t.doom(env.AbortExplicit)
				t.cleanup()
				panic(r)
			}
			t.cleanup()
			cause = ap.cause
		}
	}()
	body(t)
	return t.commit()
}
