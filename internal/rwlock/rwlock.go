// Package rwlock defines the read-write critical-section interface shared
// by SpRWL (package core), the HTM baselines (packages tle and rwle), and
// the pessimistic baselines (package locks). Workloads and the benchmark
// harness are written against this interface, so every algorithm the paper
// evaluates is interchangeable behind it.
package rwlock

import "sprwl/internal/memmodel"

// Body is a critical-section body. It must perform every shared-data access
// through the supplied accessor: depending on the algorithm and execution
// path the accessor is transactional (with retry semantics — the body may
// run several times, so it must be idempotent apart from its accessor
// stores) or direct. TestWorkerBodiesAreRetrySafe in package workload is
// the check: it re-runs every workload's bodies after aborts that come
// once a body has finished, and compares the results with a run without
// them.
type Body func(acc memmodel.Accessor)

// Handle is one thread's endpoint to a lock. A Handle must only be used by
// the thread (goroutine) it was created for; this mirrors the per-thread
// state (flags, qnodes, duration estimates) every algorithm in the paper
// keeps.
type Handle interface {
	// Read executes body as a read-only critical section. csID
	// identifies the static critical section for duration estimation
	// (paper §3.2.1); callers give each distinct read/write section its
	// own ID in [0, NumCS).
	Read(csID int, body Body)

	// Write executes body as an updating critical section.
	Write(csID int, body Body)
}

// Lock is a read-write lock instance shared by up to Threads() handles.
type Lock interface {
	// NewHandle returns the endpoint for the given thread slot.
	NewHandle(slot int) Handle

	// Name is the algorithm label used in reports ("SpRWL", "TLE", ...).
	Name() string
}
