// Package obs is the unified observability pipeline every synchronization
// algorithm in this repository reports through: a fixed event taxonomy
// (critical sections, hardware-transaction attempts, aborts, scheduling
// waits, fallback-lock spans), per-thread allocation-free event rings, and
// a small Sink interface that consumes drained event batches.
//
// SpRWL's contribution is a scheduling policy driven by runtime signals —
// abort causes, reader/writer overlap, per-CS duration estimates (paper
// §3.2, §3.4) — and this package is where those signals become observable.
// Before it existed, the signals were scattered: package stats counted a
// fixed set of outcomes, package htm tracked its own abort codes, and the
// scheduling decisions (rsync waits, wsync delays, SNZI drains) vanished
// the moment they were taken. Now every algorithm — SpRWL and all the
// baselines — emits the same event stream, so the harness compares them on
// identical telemetry and new sinks (Chrome traces, wait/work profiles)
// apply to all of them at once.
//
// # Hot-path contract
//
// Recording an event is a nil check, one struct store into a preallocated
// per-thread ring, and a counter increment — no atomics, no interface
// calls, no allocation. Sinks only run when a ring fills (every ringEvents
// events, amortizing the interface calls away) or when the pipeline is
// flushed after the workers quiesce. With no pipeline attached, every
// record call is a single predictable branch on a nil receiver, and so is
// every timestamp that feeds only the ring (Ring.Stamp): an unobserved
// lock never reads the clock for telemetry.
//
// # Threading contract
//
// A Ring is owned by its thread slot: only that thread may record into it.
// Sink.Drain is called from the owning thread (ring full) or from the
// flushing thread (after workers stop); batches for different slots may
// arrive concurrently, so sinks synchronize across slots (or keep per-slot
// state) but never within one. Pipeline.Flush must only run while no
// worker is recording.
package obs

import "sprwl/internal/env"

// Reader and Writer label which side of the lock an event belongs to.
// Their values match stats.Kind (Reader = 0, Writer = 1), which package
// stats relies on when draining events into its counters.
const (
	Reader uint8 = 0
	Writer uint8 = 1
)

// Kind is the event taxonomy. Span events carry their start timestamp in
// TS and their length in Dur; instant events have Dur == 0.
type Kind uint8

const (
	// EvNone is the zero Kind; rings never emit it.
	EvNone Kind = iota

	// EvSection is one completed critical section: TS is entry, Dur the
	// end-to-end latency (waits and retries included), RW the side, CS
	// the critical-section ID, and Code the env.CommitMode it finished
	// in.
	EvSection

	// EvAbort is one aborted hardware attempt: Code is the
	// env.AbortCause, RW the side, CS the critical-section ID.
	EvAbort

	// EvWait is one scheduling wait: Code is a Wait* reason, Dur how
	// long the thread stalled.
	EvWait

	// EvSGL is one single-global-lock fallback span: TS is acquisition,
	// Dur the hold time.
	EvSGL

	// EvTx is one hardware-transaction attempt as seen by the execution
	// environment: Code is the env.AbortCause (env.Committed for a
	// commit), Dur the attempt length. Emitted by the htm runtime and
	// the simulator when a pipeline is attached to them; the stats sink
	// ignores it (EvAbort carries the per-algorithm accounting).
	EvTx

	// EvReaders is one reader-indicator lifecycle event: a BRAVO table
	// probe collision, a fallback writer's bias revocation, or a
	// self-tuning backend switch. Code is a Readers* code; instant.
	EvReaders

	// EvPark is one waiter-parking lifecycle event (package park): a
	// parked span inside a wait, a wake issued on a phase word, or a
	// spin-abandoned marker. Code is a Park* code; ParkParked is a span
	// (Dur = cycles spent parked, a subset of the enclosing EvWait),
	// the others are instant.
	EvPark

	numKinds
)

// String returns the taxonomy label used by trace and profile output.
func (k Kind) String() string {
	switch k {
	case EvSection:
		return "section"
	case EvAbort:
		return "abort"
	case EvWait:
		return "wait"
	case EvSGL:
		return "sgl"
	case EvTx:
		return "tx"
	case EvReaders:
		return "readers"
	case EvPark:
		return "park"
	default:
		return "none"
	}
}

// Waiter-parking event codes (EvPark.Code).
const (
	// ParkParked: the cycles of one wait episode spent parked (asleep)
	// rather than spinning; Dur carries the parked span.
	ParkParked uint8 = iota
	// ParkWake: a release path issued a wake on a phase word after its
	// phase store (writer retire, fallback-lock release).
	ParkWake
	// ParkSpinAbandon: a waiter exhausted its spin budget and parked —
	// the preceding spin was wasted CPU, which is the signal the
	// oversubscription sweep tracks.
	ParkSpinAbandon

	// NumParkCodes sizes per-code accumulator arrays.
	NumParkCodes
)

// ParkCodeString returns the label for an EvPark code.
func ParkCodeString(code uint8) string {
	switch code {
	case ParkParked:
		return "parked"
	case ParkWake:
		return "wake"
	case ParkSpinAbandon:
		return "spin-abandon"
	default:
		return "unknown"
	}
}

// Reader-indicator event codes (EvReaders.Code).
const (
	// ReadersCollision: a BRAVO arrival exhausted its slot probes and
	// published on the overflow counter instead.
	ReadersCollision uint8 = iota
	// ReadersRevoked: a fallback writer revoked the BRAVO reader bias
	// before draining, advancing the revocation epoch.
	ReadersRevoked
	// ReadersSwitch: the self-tuning controller completed a reader
	// tracking backend switch.
	ReadersSwitch

	// NumReadersCodes sizes per-code accumulator arrays.
	NumReadersCodes
)

// ReadersCodeString returns the label for an EvReaders code.
func ReadersCodeString(code uint8) string {
	switch code {
	case ReadersCollision:
		return "collision"
	case ReadersRevoked:
		return "revoked"
	case ReadersSwitch:
		return "switch"
	default:
		return "unknown"
	}
}

// Wait reasons (EvWait.Code): why a thread stalled instead of making
// progress. These are exactly the scheduling decisions the paper's §3.2
// schemes take, plus the fallback interactions of §3.3 and the baselines'
// acquisition waits.
const (
	// WaitRSync: a reader waiting for the active writer predicted to
	// finish last (Alg. 2 readers_wait, the §3.2.1 scheme).
	WaitRSync uint8 = iota
	// WaitWSync: a writer delaying its retry to finish δ cycles after
	// the last active reader (Alg. 3 writer_wait, the §3.2.2 scheme).
	WaitWSync
	// WaitGL: spinning for the single-global-lock fallback to clear
	// before flagging or attempting.
	WaitGL
	// WaitDrain: a fallback writer waiting for active uninstrumented
	// readers to retire (Alg. 1 wait_for_readers).
	WaitDrain
	// WaitQuiesce: RW-LE's suspended quiescence phase (waiting for all
	// readers active at suspend time to finish).
	WaitQuiesce
	// WaitLock: a pessimistic baseline waiting to acquire the lock.
	WaitLock

	// NumWaitReasons sizes per-reason accumulator arrays.
	NumWaitReasons
)

// WaitReasonString returns the label for an EvWait code.
func WaitReasonString(code uint8) string {
	switch code {
	case WaitRSync:
		return "rsync"
	case WaitWSync:
		return "wsync"
	case WaitGL:
		return "gl"
	case WaitDrain:
		return "drain"
	case WaitQuiesce:
		return "quiesce"
	case WaitLock:
		return "lock"
	default:
		return "unknown"
	}
}

// Event is one fixed-size telemetry record. 32 bytes, value type, no
// pointers — rings hold them by value and recording is a single store.
type Event struct {
	// TS is the event (or span start) timestamp in cycles.
	TS uint64
	// Dur is the span length in cycles; 0 for instant events.
	Dur uint64
	// CS is the critical-section ID, or -1 when not applicable.
	CS int32
	// Kind is the event taxonomy entry.
	Kind Kind
	// RW is Reader or Writer.
	RW uint8
	// Code is kind-specific: env.CommitMode for EvSection,
	// env.AbortCause for EvAbort/EvTx, a Wait* reason for EvWait.
	Code uint8
}

// Sink consumes drained event batches. Drain is called with one slot's
// events in record order; the slice is only valid for the duration of the
// call (rings reuse their buffers), so sinks must copy what they keep.
// Batches for different slots may be drained concurrently.
type Sink interface {
	Drain(slot int, events []Event)
}

// ringEvents is the per-thread ring capacity. 256 events × 32 bytes = one
// 8 KiB buffer per thread; sinks run once per 256 events on the owning
// thread, which keeps their cost amortized out of the hot path.
const ringEvents = 256

// Ring is one thread slot's event buffer. All record methods are nil-safe:
// with no pipeline attached, handles hold a nil *Ring and every record
// call reduces to one branch.
type Ring struct {
	p    *Pipeline
	slot int
	n    int
	buf  [ringEvents]Event
}

// Record appends one event, flushing to the pipeline's sinks if the ring
// is full.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	r.buf[r.n] = ev
	r.n++
	if r.n == ringEvents {
		r.flush()
	}
}

// Stamp returns e's clock for a timestamp that only this ring will read,
// or 0 without reading the clock when r is nil. Algorithms take every
// observation-only stamp through it, so an unobserved lock pays a nil
// check where an observed one pays a clock read.
func (r *Ring) Stamp(e env.Env) uint64 {
	if r == nil {
		return 0
	}
	return e.Now()
}

// Section records one completed critical section of side rw spanning
// [start, end] that finished in commit mode m.
func (r *Ring) Section(rw uint8, cs int, m env.CommitMode, start, end uint64) {
	if r == nil {
		return
	}
	r.Record(Event{TS: start, Dur: end - start, CS: int32(cs), Kind: EvSection, RW: rw, Code: uint8(m)})
}

// Abort records one aborted hardware attempt of side rw with the given
// cause. env.Committed is not an abort and is dropped.
func (r *Ring) Abort(rw uint8, cs int, cause env.AbortCause, ts uint64) {
	if r == nil || cause == env.Committed {
		return
	}
	r.Record(Event{TS: ts, CS: int32(cs), Kind: EvAbort, RW: rw, Code: uint8(cause)})
}

// Wait records one scheduling wait spanning [start, end) for the given
// reason. Zero-length waits are dropped.
func (r *Ring) Wait(reason uint8, rw uint8, cs int, start, end uint64) {
	if r == nil || end <= start {
		return
	}
	r.Record(Event{TS: start, Dur: end - start, CS: int32(cs), Kind: EvWait, RW: rw, Code: reason})
}

// SGL records one fallback-lock hold spanning [acquired, released].
func (r *Ring) SGL(cs int, acquired, released uint64) {
	if r == nil {
		return
	}
	r.Record(Event{TS: acquired, Dur: released - acquired, CS: int32(cs), Kind: EvSGL, RW: Writer})
}

// Tx records one hardware-transaction attempt spanning [start, end] that
// ended with the given cause (env.Committed for a commit).
func (r *Ring) Tx(cs int, cause env.AbortCause, start, end uint64) {
	if r == nil {
		return
	}
	r.Record(Event{TS: start, Dur: end - start, CS: int32(cs), Kind: EvTx, Code: uint8(cause)})
}

// Park records one waiter-parking lifecycle event (a Park* code) of side
// rw: a parked span ([start, start+dur], code ParkParked) or an instant
// wake / spin-abandon marker (dur 0).
func (r *Ring) Park(code uint8, rw uint8, cs int, start, dur uint64) {
	if r == nil {
		return
	}
	r.Record(Event{TS: start, Dur: dur, CS: int32(cs), Kind: EvPark, RW: rw, Code: code})
}

// Readers records one reader-indicator lifecycle event (a Readers* code)
// at ts; cs is the critical-section ID or -1 when not attributable.
func (r *Ring) Readers(code uint8, cs int, ts uint64) {
	if r == nil {
		return
	}
	r.Record(Event{TS: ts, CS: int32(cs), Kind: EvReaders, Code: code})
}

// flush drains the buffered events to every sink and resets the ring.
func (r *Ring) flush() {
	if r.n == 0 {
		return
	}
	batch := r.buf[:r.n]
	for _, s := range r.p.sinks {
		s.Drain(r.slot, batch)
	}
	r.n = 0
}

// Pipeline owns one Ring per thread slot and the sinks that consume them.
type Pipeline struct {
	sinks []Sink
	rings []Ring
}

// NewPipeline builds a pipeline for n thread slots draining into the given
// sinks. Sinks are invoked in the order given.
func NewPipeline(n int, sinks ...Sink) *Pipeline {
	if n < 1 {
		n = 1
	}
	p := &Pipeline{sinks: sinks, rings: make([]Ring, n)}
	for i := range p.rings {
		p.rings[i].p = p
		p.rings[i].slot = i
	}
	return p
}

// Thread returns slot's ring, or nil for a nil pipeline (so lock
// constructors can unconditionally cache the result). Only the owning
// thread may record into the returned ring.
func (p *Pipeline) Thread(slot int) *Ring {
	if p == nil || slot < 0 || slot >= len(p.rings) {
		return nil
	}
	return &p.rings[slot]
}

// Threads returns the number of thread slots.
func (p *Pipeline) Threads() int {
	if p == nil {
		return 0
	}
	return len(p.rings)
}

// Flush drains every ring's buffered events. It must only be called while
// no worker thread is recording (after Run/the workers' join), which is
// also what makes the drained view complete rather than skewed.
func (p *Pipeline) Flush() {
	if p == nil {
		return
	}
	for i := range p.rings {
		p.rings[i].flush()
	}
}
