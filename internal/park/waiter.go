package park

import (
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
)

// Env is the slice of the execution environment a Waiter needs; env.Env
// satisfies it.
type Env interface {
	// Now returns the current cycle count.
	Now() uint64
	// Yield hints that the calling thread is spinning.
	Yield()
	// WaitUntil blocks the calling thread until Now() >= t.
	WaitUntil(t uint64)
}

// Policy tunes one wait site's spin-then-park behaviour.
type Policy struct {
	// SpinBudget is how many spin iterations precede parking (with a
	// parker) or the modelled block (without one, when BlockCycles > 0).
	SpinBudget int

	// RoundTrip is the estimated park/wake round-trip in cycles. When a
	// site can predict its remaining wait — the EMA duration estimator's
	// job (paper §3.2.1) — and the prediction exceeds RoundTrip, the
	// waiter parks immediately: the sleep is cheaper than spinning out
	// the prediction. Short predicted waits keep spinning and retain
	// today's wake-to-run latency.
	RoundTrip uint64

	// BlockCycles, when nonzero and no parker is available, models a
	// kernel block after the spin budget: the waiter sleeps
	// BlockCycles of (virtual) time and re-checks. This is how the
	// pessimistic baselines keep their futex-latency cost model — and
	// their bit-identical simulated behaviour — on environments without
	// parking. Zero means pure spinning (the historical core behaviour).
	BlockCycles uint64
}

// Default policy constants.
const (
	// DefaultSpinBudget is roughly the iteration count after which a
	// waiter on an oversubscribed host has burned more CPU than a
	// park/wake round trip costs.
	DefaultSpinBudget = 64

	// DefaultRoundTrip approximates a futex-style wake latency
	// (cycles ≈ nanoseconds on the real runtime's wall clock).
	DefaultRoundTrip = 8000

	// PessimisticSpinLimit and PessimisticWakeCycles are the historical
	// spin-then-block constants of the pessimistic baselines (pthread
	// locks spin briefly, then block in the kernel and pay a wake-up).
	PessimisticSpinLimit  = 20
	PessimisticWakeCycles = 4000
)

// SpinPark is the policy of the SpRWL core wait sites: spin briefly, park
// when the spin budget is exhausted or the predicted wait says parking is
// cheaper; without a parker, spin forever (the pre-park core behaviour).
// Budgets tune only the spin/park trade-off, never the protocol:
// sprwl-model treats every Pause as a nondeterministic spin-or-park choice.
func SpinPark() Policy {
	return Policy{SpinBudget: DefaultSpinBudget, RoundTrip: DefaultRoundTrip}
}

// Pessimistic is the policy of the pthread-style baselines: a short spin,
// then a real park — or, without a parker, the modelled kernel block the
// simulator has always charged for them.
func Pessimistic() Policy {
	return Policy{
		SpinBudget:  PessimisticSpinLimit,
		RoundTrip:   DefaultRoundTrip,
		BlockCycles: PessimisticWakeCycles,
	}
}

// Waiter is one wait episode's spin-then-park state. Construct it on the
// stack at the wait site (zero allocation), call Pause once per failed
// predicate check, and Report the accumulated stall when the predicate
// finally holds:
//
//	w := park.Waiter{E: e, P: parker, Pol: park.SpinPark()}
//	for predicateStillBlocked() {
//		w.Pause(phaseWord, blockedValue, predictedRemaining)
//	}
//	w.Report(ring, obs.WaitGL, obs.Reader, csID)
//
// The caller re-loads its predicate between Pauses; Park's internal
// re-check (see the package comment) closes the check-to-sleep window.
type Waiter struct {
	// E is the execution environment; required.
	E Env
	// P is the environment's parker; nil degrades to spinning (plus the
	// policy's modelled block, if any).
	P Parker
	// Pol tunes the spin/park trade-off.
	Pol Policy

	spins     int
	waited    bool
	abandoned bool
	t0        uint64
	parkStart uint64
	parked    uint64
	parks     uint32
}

// CanPark reports whether Pause can ever actually park. Sites whose
// remaining-wait prediction costs extra (charged) memory accesses gate
// those loads on CanPark so that spin-only environments — the simulator —
// execute bit-identical access sequences with or without this package.
func (w *Waiter) CanPark() bool { return w.P != nil }

// Pause is called once per failed predicate check: it spins, parks on the
// phase word at a while it holds expected, or models a kernel block,
// according to the policy. remaining is the predicted remaining wait in
// cycles (0 = unknown); predictions beyond the park/wake round trip park
// immediately instead of spinning the prediction out.
func (w *Waiter) Pause(a memmodel.Addr, expected, remaining uint64) {
	if !w.waited {
		w.waited = true
		w.t0 = w.E.Now()
	}
	if w.P != nil {
		if w.spins >= w.Pol.SpinBudget || remaining > w.Pol.RoundTrip {
			if w.spins >= w.Pol.SpinBudget && remaining <= w.Pol.RoundTrip {
				// Parking because spinning ran out, not because the
				// prediction said so: the spin was wasted work, which
				// the profiler surfaces as a spin-abandoned event.
				w.abandoned = true
			}
			w.parkStart = w.E.Now()
			w.P.Park(a, expected)
			w.parked += w.E.Now() - w.parkStart
			w.parks++
			return
		}
		w.spins++
		w.E.Yield()
		return
	}
	if w.Pol.BlockCycles > 0 && w.spins >= w.Pol.SpinBudget {
		w.E.WaitUntil(w.E.Now() + w.Pol.BlockCycles)
		return
	}
	w.spins++
	w.E.Yield()
}

// Parked returns the cycles spent parked and the number of park episodes.
func (w *Waiter) Parked() (cycles uint64, parks int) { return w.parked, int(w.parks) }

// Report emits the accumulated stall into ring as one EvWait span for the
// given reason, plus the park telemetry (parked span, spin-abandoned
// marker) the wait-vs-work profiler splits spin from sleep with. An
// episode with no Pause, or a nil ring, emits nothing and reads no clock.
func (w *Waiter) Report(ring *obs.Ring, reason, rw uint8, cs int) {
	if !w.waited || ring == nil {
		return
	}
	ring.Wait(reason, rw, cs, w.t0, w.E.Now())
	w.ReportParks(ring, rw, cs)
}

// ReportParks emits only the park telemetry, for sites that record their
// EvWait span themselves (because its start predates the first Pause —
// e.g. a timed pre-wait precedes the loop).
func (w *Waiter) ReportParks(ring *obs.Ring, rw uint8, cs int) {
	if ring == nil {
		return
	}
	if w.parks > 0 {
		ring.Park(obs.ParkParked, rw, cs, w.t0, w.parked)
	}
	if w.abandoned {
		ring.Park(obs.ParkSpinAbandon, rw, cs, w.E.Now(), 0)
	}
}
