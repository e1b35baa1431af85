package htm

import (
	"math/bits"
	"sync/atomic"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// A transaction's read set is private to its slot but published: the owner
// is its only writer, and a thread about to write a line probes the read
// sets of the active slots to find the readers it must doom (doomReaders).
// Real HTM keeps the read set in the reading core's private cache and finds
// readers through coherence; a shared per-line reader bitmask would instead
// make every first read of a line a locked read-modify-write on a line that
// all its readers write.

// readTableSlots is the initial size of a read table. Half of it is a
// comfortable margin over the largest effective per-thread read capacity a
// machine profile configures (Broadwell: 384 lines), so only
// unlimited-capacity spaces ever grow a table.
const readTableSlots = 1024

// readTable is one generation of a published read set: an open-addressed,
// linearly probed table of entries epoch<<32 | line+1. An entry is live iff
// its epoch is the owning Tx's current epoch, which the Tx publishes in its
// state word; any other value, zero included, is a free slot, so a fresh
// attempt empties the set by bumping the epoch (Tx.nextEpoch). The owner
// keeps the table at most half full and doubles it before it would pass
// that, which bounds every probe.
type readTable struct {
	shift   uint // 64 - log2(len(entries))
	entries []atomic.Uint64
}

func newReadTable(slots int) *readTable {
	return &readTable{
		shift:   uint(64 - bits.TrailingZeros(uint(slots))),
		entries: make([]atomic.Uint64, slots),
	}
}

// readEntry is the table entry for line l in the given epoch. NewSpace keeps
// line+1 within 32 bits.
func readEntry(epoch uint32, l memmodel.Line) uint64 {
	return uint64(epoch)<<32 | uint64(l) + 1
}

// find probes for entry e. It returns e's index if e is live, and otherwise
// the first free slot on e's probe path, where the owner inserts it.
func (rt *readTable) find(e uint64) (int, bool) {
	epoch := e >> 32
	mask := len(rt.entries) - 1
	for i := int(uint64(uint32(e)) * hashMult >> rt.shift); ; i = (i + 1) & mask {
		switch got := rt.entries[i].Load(); {
		case got == e:
			return i, true
		case got>>32 != epoch:
			return i, false
		}
	}
}

// addRead stores entry e, which is not yet in the read table rt, at index
// i, the free slot that rt.find(e) returned. A new line counts against the
// slot's read capacity, and the attempt fails with a capacity abort when the
// set is already full. The entry is stored atomically, so it is published
// before the caller's later loads of the line's owner and word.
func (t *Tx) addRead(rt *readTable, i int, e uint64) {
	if cap := t.space.caps[t.slot].read; cap > 0 && t.nreads >= cap {
		t.fail(env.AbortCapacity)
	}
	if 2*(t.nreads+1) > len(rt.entries) {
		rt = t.growReads(rt)
		i, _ = rt.find(e)
	}
	rt.entries[i].Store(e)
	t.nreads++
}

// growReads copies the live entries of rt into a table twice its size and
// publishes that. The copy comes first: a scanner that loads the new table
// finds every entry the old one held. The old table is never written again
// and still holds all of them, so a scanner that loaded it before the swap
// misses only entries stored after the swap, and those are stored after its
// own write (see doomReaders). The grown table is kept for later attempts.
func (t *Tx) growReads(rt *readTable) *readTable {
	grown := newReadTable(2 * len(rt.entries))
	for i := range rt.entries {
		if e := rt.entries[i].Load(); uint32(e>>32) == t.epoch {
			j, _ := grown.find(e)
			grown.entries[j].Store(e)
		}
	}
	t.reads.Store(grown)
	return grown
}

// countSlot raises s.used past slot. Its callers run it before the slot's
// first attempt goes active.
func (s *Space) countSlot(slot int) {
	for {
		n := s.used.Load()
		if n > int64(slot) || s.used.CompareAndSwap(n, int64(slot)+1) {
			return
		}
	}
}

// holds reports whether the attempt whose state word is st has published l
// in its read set. Other threads call it after seeing st active.
func (t *Tx) holds(st uint64, l memmodel.Line) bool {
	_, ok := t.reads.Load().find(readEntry(uint32(st>>epochShift), l))
	return ok
}

// doomReaders dooms every active transaction, other than the one on slot
// except, that holds line l in its read set. Callers make their own write
// visible first (the line's ownership in acquireLine, the word in
// doomLineUsers), and a reader publishes its entry before it loads the
// line's owner and word. Every access on both sides is sequentially
// consistent, so either this scan finds the entry or the reader's loads see
// the caller's write: a reader is never missed. Slots are visited in slot
// order, up to Space.used: a slot raises it before its first attempt goes
// active, so a reader the scan skips began after the caller's write.
func (s *Space) doomReaders(l memmodel.Line, except int) {
	txs := s.txs[:s.used.Load()]
	for i := range txs {
		t := &txs[i]
		st := t.state.Load()
		if i != except && uint32(st)&stateMask == stActive && t.holds(st, l) {
			t.doom(env.AbortConflict)
		}
	}
}
