// Package hostile is the hostile-environment test harness: infrastructure
// for running this repository's lock protocols under conditions engineered
// to break them, rather than the friendly schedulers the conformance and
// stress suites get by default.
//
// It has three pillars:
//
//   - Chaos controller (chaos.go): an in-process controller that perturbs a
//     running workload — shrinking and growing GOMAXPROCS mid-run, raising
//     preemption storms of OS-thread-pinned spinners, and starving or
//     inflating every wait site's park budget through the injection hook in
//     internal/park. Each perturbation window is recorded as an EvChaos
//     span through internal/obs, so the wait-vs-work profiler can attribute
//     observed stall time to the injected fault that caused it.
//
//   - Multi-process crash harness (shm.go, mp.go): the test binary re-execs
//     itself as worker processes sharing a file-backed mmap arena holding a
//     locks.SpinMutex-guarded counter protocol. The parent SIGKILLs workers
//     at the named fence points of CrashPoints — after a reader's
//     flag-raise, after a writer's lock advertisement, between a writer's
//     journal publish and its counter store — and verifies that the
//     survivors recover the lock, drain, and keep the counter oracle
//     consistent. This is the only tier that tests death, which no
//     in-process fault can simulate: a killed process's registered state
//     stays behind with no deferred cleanup.
//
//   - Leak checking (leak.go): a goroutine-dump diff plus fd-count check,
//     with retry/backoff for shutdown stragglers, registered as a cleanup
//     on every conformance and stress round so that a protocol bug that
//     strands a parked goroutine fails the suite even when the oracle
//     happens to pass.
package hostile
