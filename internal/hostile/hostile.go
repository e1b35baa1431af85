// Package hostile is the hostile-environment test harness: infrastructure
// for running this repository's lock protocols under conditions engineered
// to break them, rather than the friendly schedulers the conformance and
// stress suites get by default.
//
// It has two pillars:
//
//   - Chaos controller (chaos.go): an in-process controller that disturbs a
//     running workload by shrinking and growing GOMAXPROCS mid-run and by
//     raising preemption storms of OS-thread-pinned spinners. Neither arm
//     needs a hook in production code. Spin and park budgets are not
//     changed here: the model checker (sprwl-model) already treats every
//     wait-loop Pause as a nondeterministic spin-or-park choice.
//
//   - Leak checking (leak.go): a goroutine-dump diff plus fd-count check,
//     with retry/backoff for shutdown stragglers, registered as a cleanup
//     on every conformance and stress round so that a protocol bug that
//     strands a parked goroutine fails the suite even when the oracle
//     happens to pass.
package hostile
