package htm

import (
	"runtime"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/park"
	"sprwl/internal/tsc"
)

// Runtime is the real-concurrency implementation of env.Env: goroutines
// stand in for hardware threads, the Space provides HTM semantics, and the
// cycle clock is the host monotonic clock. This is the environment the
// public library runs on; the benchmark harness uses the discrete-event
// implementation in package sim instead.
type Runtime struct {
	space *Space
	clock tsc.Clock
	pipe  *obs.Pipeline
	table *park.Table
}

var (
	_ env.Env       = (*Runtime)(nil)
	_ park.Provider = (*Runtime)(nil)
)

// NewRuntime wraps space and clock into an execution environment. A nil
// clock selects the wall clock. Wait sites spin briefly and then sleep in
// the runtime's sharded waiter table (see package park).
func NewRuntime(space *Space, clock tsc.Clock) *Runtime {
	if clock == nil {
		clock = tsc.WallClock{}
	}
	return &Runtime{
		space: space,
		clock: clock,
		table: park.NewTable(space.Load),
	}
}

// Space returns the underlying address space, for provisioning.
func (r *Runtime) Space() *Space { return r.space }

// Parker implements park.Provider: the runtime's waiter table.
func (r *Runtime) Parker() park.Parker { return r.table }

// AttachObs routes per-attempt hardware transaction events (obs.EvTx) into
// pipe's per-thread rings, one event per Attempt with its outcome and time
// span. Detached (the default), Attempt emits nothing and pays no
// instrumentation cost. Attach before handing the runtime to workers.
func (r *Runtime) AttachObs(pipe *obs.Pipeline) { r.pipe = pipe }

// Load implements env.Env.
func (r *Runtime) Load(a memmodel.Addr) uint64 { return r.space.Load(a) }

// Store implements env.Env.
func (r *Runtime) Store(a memmodel.Addr, v uint64) { r.space.Store(a, v) }

// CAS implements env.Env.
func (r *Runtime) CAS(a memmodel.Addr, old, new uint64) bool { return r.space.CAS(a, old, new) }

// Add implements env.Env.
func (r *Runtime) Add(a memmodel.Addr, d uint64) uint64 { return r.space.Add(a, d) }

// Attempt implements env.Env.
func (r *Runtime) Attempt(slot int, opts env.TxOpts, body func(tx env.TxAccessor)) env.AbortCause {
	if r.pipe == nil {
		return r.space.Attempt(slot, opts, body)
	}
	start := r.clock.Now()
	cause := r.space.Attempt(slot, opts, body)
	r.pipe.Thread(slot).Tx(-1, cause, start, r.clock.Now())
	return cause
}

// Now implements env.Env.
func (r *Runtime) Now() uint64 { return r.clock.Now() }

// WaitUntil implements env.Env. Cycles are nanoseconds under the wall
// clock; short waits spin-yield, long waits sleep most of the interval to
// avoid burning the (possibly oversubscribed) host CPU.
func (r *Runtime) WaitUntil(t uint64) {
	if s, ok := r.clock.(tsc.Sleeper); ok {
		// A virtual clock completes timed waits by advancing time,
		// keeping tests of the wait paths deterministic and instant.
		s.SleepUntil(t)
		return
	}
	const sleepThreshold = 200_000 // cycles (~200µs wall time)
	for {
		now := r.clock.Now()
		if now >= t {
			return
		}
		if rem := t - now; rem > sleepThreshold {
			time.Sleep(time.Duration(rem-sleepThreshold/2) * time.Nanosecond)
		} else {
			runtime.Gosched()
		}
	}
}

// Yield implements env.Env.
func (r *Runtime) Yield() { runtime.Gosched() }

// Threads implements env.Env.
func (r *Runtime) Threads() int { return r.space.Threads() }
