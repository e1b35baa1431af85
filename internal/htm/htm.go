// Package htm emulates best-effort hardware transactional memory over a
// simulated word-addressable address space.
//
// Go has no HTM intrinsics and this reproduction runs on hardware without
// TSX/POWER-HTM, so the paper's hardware substrate is replaced by a software
// emulation that implements exactly the semantics SpRWL's correctness
// argument relies on (paper §1, §3.3):
//
//   - Buffered writes: a transaction's stores are invisible to every other
//     thread until commit, at which point they are externalized atomically.
//   - Eager conflict detection, requester wins: an access that hits a line
//     owned by another active transaction dooms that transaction
//     immediately, mirroring invalidation-based coherence.
//   - Strong isolation: uninstrumented (non-transactional) stores doom any
//     transaction holding the line in its read or write set, and
//     uninstrumented loads doom any transaction that has written the line.
//   - Best-effort capacity: per-slot read/write footprint limits modelled on
//     the paper's Broadwell and POWER8 machines; exceeding them aborts with
//     a capacity cause that callers treat as "do not retry in hardware".
//   - Rollback-only transactions (ROTs, POWER8): loads are untracked — no
//     read capacity, no conflict aborts for the reader side — while stores
//     keep full write-set semantics. Suspended sections model POWER8's
//     suspend/resume. Both are needed only by the RW-LE baseline.
//
// The implementation keeps one atomic metadata word per 64-byte line, the
// owner slot of the (single) transaction that has written it. Read sets are
// per transaction, as in a core's private cache: each Tx publishes the
// lines it has read in a table only it writes, and a thread about to write a
// line probes the tables of the active slots for readers to doom. All
// conflict handshakes are ordered so that detection is never missed: writers
// publish ownership before scanning read sets, readers publish a read-set
// entry before loading the line's owner and word, uninstrumented loads check
// ownership before loading, and uninstrumented stores write memory before
// scanning read sets. A transactional load re-checks its own doom after
// reading memory, so a body never acts on an inconsistent snapshot
// (opacity).
// A committing transaction first moves to a Committing state that wins every
// subsequent doom race, then writes back, then releases its lines — which
// makes externalization atomic from the point of view of both transactional
// and uninstrumented code.
package htm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

// MaxThreads is the maximum number of thread slots per Space. Every
// uninstrumented store and every first transactional store to a line scans
// the slots that have run an attempt, so their number is kept small; the
// value also caps the simulated reader series (harness/readers.go).
const MaxThreads = 64

// Config sizes a Space and sets its default best-effort limits.
type Config struct {
	// Threads is the number of thread slots (1..MaxThreads). Every
	// transactional attempt names one of these slots; a slot may run at
	// most one transaction at a time.
	Threads int

	// Words is the size of the address space in 64-bit words. It is
	// rounded up to a whole number of cache lines.
	Words int

	// ReadCapacityLines and WriteCapacityLines bound the number of
	// distinct cache lines a transaction may read and write. Zero means
	// "use the profile default" when the Space is built from a Profile,
	// or unlimited otherwise.
	ReadCapacityLines  int
	WriteCapacityLines int

	// SpuriousEvery, when non-zero, dooms the transaction performing
	// every SpuriousEvery-th transactional access with AbortSpurious.
	// It models timer interrupts and context switches, and is used by
	// failure-injection tests.
	SpuriousEvery uint64
}

// lineMeta is the per-cache-line conflict-detection metadata. Readers are
// not recorded here: each transaction publishes its own read set
// (readtable.go).
type lineMeta struct {
	// writer is slot+1 of the transaction that has written this line, or
	// zero when the line is transactionally unowned.
	writer atomic.Uint64
}

type capPair struct {
	read, write int
}

// Space is a simulated shared address space with HTM semantics.
type Space struct {
	cfg   Config
	words []uint64
	lines []lineMeta
	txs   []Tx
	caps  []capPair
	// used is one past the highest slot that has begun an attempt, and
	// doomReaders scans only the slots below it: stores to a structure
	// built before any transaction runs skip the scan. It grows at most
	// once per slot, so it stays read-shared.
	used    atomic.Int64
	spurCtr atomic.Uint64
}

var _ memmodel.Space = (*Space)(nil)

// NewSpace builds a Space for cfg.
func NewSpace(cfg Config) (*Space, error) {
	if cfg.Threads <= 0 || cfg.Threads > MaxThreads {
		return nil, fmt.Errorf("htm: Threads must be in [1,%d], got %d", MaxThreads, cfg.Threads)
	}
	if cfg.Words <= 0 {
		return nil, errors.New("htm: Words must be positive")
	}
	if cfg.ReadCapacityLines < 0 || cfg.WriteCapacityLines < 0 {
		return nil, errors.New("htm: capacities must be non-negative")
	}
	nwords := (cfg.Words + memmodel.LineWords - 1) / memmodel.LineWords * memmodel.LineWords
	if uint64(nwords/memmodel.LineWords) > math.MaxUint32 {
		// A read-set entry holds line+1 in 32 bits.
		return nil, fmt.Errorf("htm: Words must be at most %d, got %d", uint64(math.MaxUint32)*memmodel.LineWords, cfg.Words)
	}
	s := &Space{
		cfg:   cfg,
		words: make([]uint64, nwords),
		lines: make([]lineMeta, nwords/memmodel.LineWords),
		txs:   make([]Tx, cfg.Threads),
		caps:  make([]capPair, cfg.Threads),
	}
	for i := range s.txs {
		tx := &s.txs[i]
		tx.space = s
		tx.slot = i
		tx.reads.Store(newReadTable(readTableSlots))
		tx.log.init()
		tx.writeSet.init()
	}
	for i := range s.caps {
		s.caps[i] = capPair{read: cfg.ReadCapacityLines, write: cfg.WriteCapacityLines}
	}
	return s, nil
}

// MustNewSpace is NewSpace for static configurations; it panics on error.
func MustNewSpace(cfg Config) *Space {
	s, err := NewSpace(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Size returns the number of words in the space.
func (s *Space) Size() memmodel.Addr { return memmodel.Addr(len(s.words)) }

// Threads returns the number of thread slots.
func (s *Space) Threads() int { return s.cfg.Threads }

// SetSlotCapacity overrides the read/write capacity (in distinct cache
// lines) for one slot. Zero means unlimited. The paper's POWER8 machine
// shares transactional capacity among SMT threads on a core; the simulator
// uses this to model that sharing as threads are added.
func (s *Space) SetSlotCapacity(slot, readLines, writeLines int) {
	s.caps[slot] = capPair{read: readLines, write: writeLines}
}

// word returns a pointer to the storage word for a, bounds-checked by the
// slice access.
func (s *Space) word(a memmodel.Addr) *uint64 { return &s.words[a] }

func (s *Space) line(l memmodel.Line) *lineMeta { return &s.lines[l] }

// Load reads a word uninstrumented, with strong isolation: if the line has
// been written by an active transaction, that transaction is doomed (as a
// remote read of a modified line would abort it in hardware); if the writer
// is already committing, Load waits for write-back to finish so that it
// never observes a torn commit.
//
// The ownership check precedes the word load. A transaction that reached
// its commit point before this Load began still owns the line until its
// write-back is done, so Load either waits for it or reads its value.
// Loading the word first would let a whole write-back and release slip in
// between the two reads, and return a value older than a commit that
// happened before the call.
func (s *Space) Load(a memmodel.Addr) uint64 {
	for {
		lm := s.line(memmodel.LineOf(a))
		w := lm.writer.Load()
		if w == 0 {
			return atomic.LoadUint64(s.word(a))
		}
		owner := &s.txs[w-1]
		if owner.doom(env.AbortConflict) {
			// The owner was active and is now doomed; it will not
			// commit, so memory (its writes were buffered) holds
			// the committed state.
			return atomic.LoadUint64(s.word(a))
		}
		// The owner won the race to commit (or is mid-cleanup): wait
		// for it to release the line, then re-read the committed
		// value. The doom is retried on every spin: the slot's next
		// attempt can re-own the line before this loop sees the
		// release, and that attempt must be doomed, not waited for (it
		// may itself be waiting for this caller, as an RW-LE writer
		// quiescing readers does).
		for lm.writer.Load() == w {
			if owner.doom(env.AbortConflict) {
				return atomic.LoadUint64(s.word(a))
			}
			runtime.Gosched()
		}
	}
}

// Store writes a word uninstrumented, with strong isolation: any active
// transaction holding the line in its read or write set is doomed. The
// handshake order (publish the value, then scan metadata) pairs with the
// transactional order (publish metadata, then access) so that a conflicting
// transaction is always either doomed here or observes the new value.
func (s *Space) Store(a memmodel.Addr, v uint64) {
	s.waitWriterRelease(a)
	atomic.StoreUint64(s.word(a), v)
	s.doomLineUsers(memmodel.LineOf(a))
}

// CAS atomically compares-and-swaps a word uninstrumented. A successful CAS
// has Store's strong-isolation semantics; a failed CAS has Load's.
func (s *Space) CAS(a memmodel.Addr, old, new uint64) bool {
	s.waitWriterRelease(a)
	if !atomic.CompareAndSwapUint64(s.word(a), old, new) {
		return false
	}
	s.doomLineUsers(memmodel.LineOf(a))
	return true
}

// Add atomically adds d to a word uninstrumented, returning the new value,
// with Store's strong-isolation semantics.
func (s *Space) Add(a memmodel.Addr, d uint64) uint64 {
	s.waitWriterRelease(a)
	v := atomic.AddUint64(s.word(a), d)
	s.doomLineUsers(memmodel.LineOf(a))
	return v
}

// waitWriterRelease waits until the line holding a is not owned by a
// committing transaction, dooming an active owner if there is one. After it
// returns, any transaction that subsequently writes the line will observe
// the caller's update during its own conflict handshake.
func (s *Space) waitWriterRelease(a memmodel.Addr) {
	lm := s.line(memmodel.LineOf(a))
	for {
		w := lm.writer.Load()
		if w == 0 {
			return
		}
		owner := &s.txs[w-1]
		if owner.doom(env.AbortConflict) {
			return
		}
		// As in Load, a later attempt of the same slot may re-own
		// the line while we wait; doom it rather than wait for it.
		for lm.writer.Load() == w {
			if owner.doom(env.AbortConflict) {
				return
			}
			runtime.Gosched()
		}
	}
}

// doomLineUsers dooms every active transaction that holds line l in its
// read or write set. Transactions that already reached their commit point
// are left alone: they serialize before the caller's store.
func (s *Space) doomLineUsers(l memmodel.Line) {
	if w := s.line(l).writer.Load(); w != 0 {
		s.txs[w-1].doom(env.AbortConflict)
	}
	// Until a slot begins an attempt there are no readers to scan for,
	// which spares a structure being built the call.
	if s.used.Load() != 0 {
		s.doomReaders(l, -1)
	}
}
