package park

import "sync/atomic"

// Fault injection for the hostile-environment harness (internal/hostile).
//
// Every wait site builds its Policy through SpinPark or Pessimistic, so a
// single process-wide hook perturbing those constructors reaches every
// spin-then-park decision in the repository — the core reader/writer waits,
// the fallback-lock spins, and both pessimistic baselines — without the
// sites knowing anything about injection. The canonical perturbation is
// park-budget starvation: the hook zeroes SpinBudget (every waiter parks
// immediately, hammering the wake protocol) or inflates it (waiters spin
// through windows they would normally sleep through, recreating the
// oversubscription burn). Correctness must be indifferent: policies tune
// the spin/park trade-off, never the protocol.
//
// The hook is loaded with one atomic pointer read per wait episode (not per
// Pause), costs a single branch when disabled, and allocates nothing. It is
// process-global and test-only: set it before workers start or from a
// single controller goroutine, and clear it before the test ends.

// PolicyPerturber rewrites one wait episode's policy. Implementations are
// called concurrently from every waiting goroutine and must be both
// race-free and allocation-free (they run inside every wait loop).
type PolicyPerturber func(Policy) Policy

// chaosHook is the installed perturber, or nil (the default: no injection).
var chaosHook atomic.Pointer[PolicyPerturber]

// SetChaos installs f as the process-wide policy perturber; nil uninstalls
// it. Only the hostile harness's chaos controller sets this.
func SetChaos(f PolicyPerturber) {
	if f == nil {
		chaosHook.Store(nil)
		return
	}
	chaosHook.Store(&f)
}

// ChaosInstalled reports whether a perturber is currently installed, for
// harness bookkeeping and leak checks.
func ChaosInstalled() bool { return chaosHook.Load() != nil }

// perturb applies the installed perturber to p, if any.
func perturb(p Policy) Policy {
	if f := chaosHook.Load(); f != nil {
		return (*f)(p)
	}
	return p
}
