package htm

import "sprwl/internal/memmodel"

// Flat, allocation-free transactional tracking structures for the write
// side. These replace the per-Tx Go maps (writes map[Addr]uint64, writeSet
// map[Line]struct{}) that previously dominated the emulation hot path with
// hashing and bucket walks, and whose per-attempt clear() cost scaled with
// map capacity. The read set, which other threads probe, is in
// readtable.go.
//
// Both structures are epoch-stamped: an entry is live only if its stamp
// equals the owning Tx's current epoch, which every method takes as an
// argument, so resetting for a fresh attempt is the Tx's single epoch
// increment — O(1) instead of O(capacity). Tx.nextEpoch zeroes the stamp
// arrays on the (once per 2^32 attempts) epoch wrap to keep stale stamps
// from aliasing the new epoch.
//
// Structures are owned by a single Tx and accessed only by its owning
// thread; conflicting threads interact through the per-line owner word in
// Space and the published read sets, never through these.

const (
	// lineSetSlots sizes the direct-mapped stamp table of a lineSet. It is
	// a power of two comfortably above the largest effective per-thread
	// capacity a machine profile configures (Broadwell: 384 lines), so
	// collisions — which fall back to the spill list — stay rare even for
	// capacity-bound transactions.
	lineSetSlots = 1024
	lineSetShift = 64 - 10 // log2(lineSetSlots) top bits of the hash

	// writeCacheSlots sizes the direct-mapped read-your-writes cache in
	// front of the write log. Write sets are far smaller than read sets in
	// every workload here, so a smaller table suffices.
	writeCacheSlots = 256
	writeCacheShift = 64 - 8

	// hashMult is the 64-bit golden-ratio multiplier (Fibonacci hashing);
	// the top bits of x*hashMult are well distributed even for the small
	// consecutive integers Addr and Line values typically are.
	hashMult = 0x9E3779B97F4A7C15
)

func lineSlot(l memmodel.Line) uint { return uint(uint64(l) * hashMult >> lineSetShift) }
func addrSlot(a memmodel.Addr) uint { return uint(uint64(a) * hashMult >> writeCacheShift) }

// lineSet is a set of cache lines: a direct-mapped epoch-stamped table for
// O(1) membership, a spill list for hash collisions, and an insertion-order
// member list for iteration (cleanup) and O(1) size (capacity accounting).
type lineSet struct {
	stamps  []uint32        // stamps[i] == epoch ⇒ slot i holds slotOf[i]
	slotOf  []memmodel.Line // line occupying each live slot
	members []memmodel.Line // all members, insertion order, no duplicates
	spill   []memmodel.Line // members whose hash slot was already taken
}

func (s *lineSet) init() {
	s.stamps = make([]uint32, lineSetSlots)
	s.slotOf = make([]memmodel.Line, lineSetSlots)
	s.members = make([]memmodel.Line, 0, 128)
	s.spill = make([]memmodel.Line, 0, 16)
}

// contains reports membership. The common repeat-access case costs one
// stamp-word compare plus one line compare.
func (s *lineSet) contains(l memmodel.Line, epoch uint32) bool {
	i := lineSlot(l)
	if s.stamps[i] != epoch {
		// Slot free: l cannot be a member — add always claims a free
		// slot before ever spilling.
		return false
	}
	if s.slotOf[i] == l {
		return true
	}
	for _, o := range s.spill {
		if o == l {
			return true
		}
	}
	return false
}

// add inserts l, which the caller has checked is not yet a member.
func (s *lineSet) add(l memmodel.Line, epoch uint32) {
	i := lineSlot(l)
	if s.stamps[i] != epoch {
		s.stamps[i] = epoch
		s.slotOf[i] = l
	} else {
		s.spill = append(s.spill, l)
	}
	s.members = append(s.members, l)
}

func (s *lineSet) len() int { return len(s.members) }

// reset empties the member lists for a fresh attempt; the epoch bump
// retires the stamps.
func (s *lineSet) reset() {
	s.members = s.members[:0]
	s.spill = s.spill[:0]
}

// writeLog buffers a transaction's stores as parallel addr/value slices in
// program order — commit write-back replays the log in insertion order,
// making externalization deterministic — with a direct-mapped epoch-stamped
// cache in front for O(1) read-your-writes lookups and in-place updates of
// repeated stores. A store whose cache slot was evicted by a colliding
// address appends a fresh entry instead; replay order keeps last-wins
// semantics, and lookups fall back to a newest-first log scan.
type writeLog struct {
	addrs []memmodel.Addr
	vals  []uint64

	cstamp []uint32        // cstamp[i] == epoch ⇒ cache slot i is live
	caddr  []memmodel.Addr // cached address per slot
	cidx   []int32         // index of that address's newest log entry
}

func (w *writeLog) init() {
	w.addrs = make([]memmodel.Addr, 0, 64)
	w.vals = make([]uint64, 0, 64)
	w.cstamp = make([]uint32, writeCacheSlots)
	w.caddr = make([]memmodel.Addr, writeCacheSlots)
	w.cidx = make([]int32, writeCacheSlots)
}

// cached returns the buffered value of a if its cache entry is live.
func (w *writeLog) cached(a memmodel.Addr, epoch uint32) (uint64, bool) {
	i := addrSlot(a)
	if w.cstamp[i] == epoch && w.caddr[i] == a {
		return w.vals[w.cidx[i]], true
	}
	return 0, false
}

// latest scans the log newest-first for a buffered value of a, refreshing
// the cache on a hit. Only reached when a's cache entry was evicted by a
// direct-mapped collision (or a was never stored).
func (w *writeLog) latest(a memmodel.Addr, epoch uint32) (uint64, bool) {
	for j := len(w.addrs) - 1; j >= 0; j-- {
		if w.addrs[j] == a {
			i := addrSlot(a)
			w.cstamp[i] = epoch
			w.caddr[i] = a
			w.cidx[i] = int32(j)
			return w.vals[j], true
		}
	}
	return 0, false
}

// store buffers a write, updating in place when a's cache entry is live.
func (w *writeLog) store(a memmodel.Addr, v uint64, epoch uint32) {
	i := addrSlot(a)
	if w.cstamp[i] == epoch && w.caddr[i] == a {
		w.vals[w.cidx[i]] = v
		return
	}
	w.addrs = append(w.addrs, a)
	w.vals = append(w.vals, v)
	w.cstamp[i] = epoch
	w.caddr[i] = a
	w.cidx[i] = int32(len(w.addrs) - 1)
}

// empty reports whether the log holds no buffered writes.
func (w *writeLog) empty() bool { return len(w.addrs) == 0 }

// reset discards all buffered writes for a fresh attempt in O(1); the epoch
// bump retires the cache stamps.
func (w *writeLog) reset() {
	w.addrs = w.addrs[:0]
	w.vals = w.vals[:0]
}
