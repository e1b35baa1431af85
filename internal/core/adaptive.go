package core

import (
	"math"
	"sync/atomic"

	"sprwl/internal/env"
	"sprwl/internal/obs"
	"sprwl/internal/readers"
)

// Self-tuning reader tracking (the paper's §5 future-work item): Fig. 6
// shows SNZI tracking wins by up to ~6× for long readers and loses by up to
// ~6× for short ones, and the authors propose automatically enabling and
// disabling it. With TrackAuto the lock measures reader durations
// and switches the *tracking structure* at runtime, promoting and demoting
// across all three backends of package readers:
//
//	FLAGS  — cheapest arrival (one store), O(threads) commit check;
//	BRAVO  — one-CAS arrival, O(table slots) commit check, and the only
//	         flag-style structure safe for dynamic (slot-less) readers;
//	SNZI   — one-line commit check, O(log n) arrival.
//
// The mode lives in a simulated-memory word so writers can subscribe to it
// transactionally. The word packs the target backend (which structure new
// readers flag in) and, during a transition, the structure being drained:
//
//	mode = target | (draining+1)<<drainShift    // draining absent: steady
//
// Because readers read the mode and then flag — and a writer may check in
// between — switching is three-phase: the controller stores the transition
// word (new readers now use the target; writers check BOTH structures),
// waits for the old structure to drain, then stores the steady word. A
// reader additionally re-validates the mode after flagging and re-flags if
// the structure it used is no longer covered — so at every instant an
// active reader is visible to every checking writer.
const (
	backendFlags uint64 = 0
	backendSNZI  uint64 = 1
	backendBravo uint64 = 2

	backendMask uint64 = 3
	drainShift         = 2
)

// trackTarget returns the structure new readers should use under mode m.
func trackTarget(m uint64) uint64 { return m & backendMask }

// drainingBackend returns the structure a transition is draining, if m is
// a transition word.
func drainingBackend(m uint64) (uint64, bool) {
	d := m >> drainShift
	return d - 1, d != 0
}

// transitionMode packs the transition word draining `from` into `to`.
func transitionMode(to, from uint64) uint64 { return to | (from+1)<<drainShift }

// covered reports whether a reader flagged in structure s is visible to
// writers under mode m.
func covered(s, m uint64) bool {
	if s == trackTarget(m) {
		return true
	}
	d, ok := drainingBackend(m)
	return ok && s == d
}

// adaptState is the controller's Go-side state (library-internal, like the
// duration estimator).
type adaptState struct {
	// readerEMA is the exponential moving average of uninstrumented
	// reader critical-section durations, as a float64 bit pattern.
	readerEMA atomic.Uint64
	// reads counts sampled reads, to pace controller evaluations.
	reads atomic.Uint64
	// mu serializes tracking transitions: the paced controller and
	// NewDynamicHandle's one-shot flags eviction must not interleave
	// their three-phase switches.
	mu nbMutex
}

// nbMutex is a CAS mutex with a non-blocking TryLock, so the paced
// controller can skip an evaluation instead of stalling a reader behind a
// transition already in flight.
type nbMutex struct{ held atomic.Uint32 }

func (m *nbMutex) TryLock() bool { return m.held.CompareAndSwap(0, 1) }
func (m *nbMutex) Lock() {
	for !m.held.CompareAndSwap(0, 1) {
	}
}
func (m *nbMutex) Unlock() { m.held.Store(0) }

const (
	// adaptEvery paces controller evaluations (sampled reads between
	// decisions).
	adaptEvery = 32
	// adaptAlpha is the reader-duration EMA weight.
	adaptAlpha = 0.25
	// adaptHysteresis avoids mode flapping: demote only below the
	// promotion threshold divided by adaptHysteresis.
	adaptHysteresis = 2
	// adaptBravoDivisor sets the flags→BRAVO promotion point relative
	// to the SNZI threshold: BRAVO's commit check is a fraction of the
	// flag array's (table slots vs. registered threads), so it pays off
	// at proportionally shorter reader durations than SNZI does.
	adaptBravoDivisor = 4
)

// DefaultAutoSNZIThreshold is the reader duration (cycles) above which SNZI
// tracking is enabled. Fig. 6's crossover sits where the reader is roughly
// an order of magnitude longer than the writer's flag-array check; 16k
// cycles is that point under the simulator's default cost model.
const DefaultAutoSNZIThreshold = 16_384

// recordReaderDuration feeds the controller and, on a pacing handle (the
// sampling slot or any dynamic handle), periodically evaluates a switch.
func (h *handle) recordReaderDuration(cycles uint64) {
	l := h.l
	for {
		old := l.adapt.readerEMA.Load()
		var next float64
		if old == 0 {
			next = float64(cycles)
		} else {
			prev := math.Float64frombits(old)
			next = adaptAlpha*float64(cycles) + (1-adaptAlpha)*prev
		}
		if l.adapt.readerEMA.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	if h.slot > 0 {
		return
	}
	if l.adapt.reads.Add(1)%adaptEvery != 0 {
		return
	}
	h.maybeSwitchTracking()
}

// maybeSwitchTracking runs the controller: begin and complete a transition
// if the measured reader duration crossed a backend's threshold. With the
// transition lock busy another switch is in flight; skip this evaluation.
func (h *handle) maybeSwitchTracking() {
	l := h.l
	if !l.adapt.mu.TryLock() {
		return
	}
	defer l.adapt.mu.Unlock()
	ema := math.Float64frombits(l.adapt.readerEMA.Load())
	cur := trackTarget(l.e.Load(l.trackMode))
	want := l.desiredBackend(cur, ema)
	if want == backendFlags && l.dynReaders.Load() > 0 {
		// Dynamic readers carry no slot; the flag array cannot hold
		// them. BRAVO is the cheap-reader structure that can.
		want = backendBravo
	}
	if want != cur {
		h.switchTracking(cur, want)
	}
}

// desiredBackend maps the reader-duration EMA to a tracking structure,
// with hysteresis on demotions relative to the current structure.
func (l *Lock) desiredBackend(cur uint64, ema float64) uint64 {
	const snziAt = float64(DefaultAutoSNZIThreshold)
	bravoAt := snziAt / adaptBravoDivisor
	switch cur {
	case backendFlags:
		if ema > snziAt {
			return backendSNZI
		}
		if ema > bravoAt {
			return backendBravo
		}
	case backendBravo:
		if ema > snziAt {
			return backendSNZI
		}
		if ema < bravoAt/adaptHysteresis {
			return backendFlags
		}
	case backendSNZI:
		if ema < snziAt/adaptHysteresis {
			if ema > bravoAt {
				return backendBravo
			}
			return backendFlags
		}
	}
	return cur
}

// switchTracking runs the three-phase transition from structure `from` to
// structure `to`. Caller holds the transition lock.
func (h *handle) switchTracking(from, to uint64) {
	l := h.l
	l.e.Store(l.trackMode, transitionMode(to, from))
	h.drainBackend(from)
	l.e.Store(l.trackMode, to)
	h.ring.Readers(obs.ReadersSwitch, -1, h.ring.Stamp(l.e))
}

// drainBackend waits until no reader is flagged in structure s.
func (h *handle) drainBackend(s uint64) {
	l := h.l
	switch s {
	case backendSNZI:
		l.indSNZI.Drain(l.e)
	case backendBravo:
		l.indBravo.Drain(l.e)
	default:
		l.indFlags.Drain(l.e)
	}
}

// trackingMode returns the current reader-tracking mode for this lock
// configuration (static modes never read simulated memory).
func (l *Lock) trackingMode() uint64 {
	if l.opts.Tracking == TrackAuto {
		return l.e.Load(l.trackMode)
	}
	return uint64(l.opts.Tracking)
}

// arriveIn flags the reader in structure s, remembering the structure and
// the backend token so the retract always targets what was used.
func (h *handle) arriveIn(s uint64) {
	l := h.l
	switch s {
	case backendSNZI:
		h.flagToken = l.indSNZI.Arrive(h.hint)
	case backendBravo:
		h.flagToken = l.indBravo.Arrive(h.hint)
		if h.flagToken == readers.OverflowToken && h.ring != nil {
			h.ring.Readers(obs.ReadersCollision, -1, h.ring.Stamp(l.e))
		}
	default:
		h.flagToken = l.indFlags.Arrive(h.hint)
	}
	h.flaggedIn = s
}

// departFrom retracts the reader flag from structure s.
func (h *handle) departFrom(s uint64) {
	l := h.l
	switch s {
	case backendSNZI:
		l.indSNZI.Depart(h.flagToken)
	case backendBravo:
		l.indBravo.Depart(h.flagToken)
	default:
		l.indFlags.Depart(h.flagToken)
	}
}

// checkBackend aborts the writer if structure s holds an active reader.
// The flag array skips the writer's own slot.
func (h *handle) checkBackend(tx env.TxAccessor, s uint64) {
	l := h.l
	var active bool
	switch s {
	case backendSNZI:
		active = l.indSNZI.Check(tx, -1)
	case backendBravo:
		active = l.indBravo.Check(tx, -1)
	default:
		active = l.indFlags.Check(tx, h.slot)
	}
	if active {
		tx.Abort(env.AbortReader)
	}
}
