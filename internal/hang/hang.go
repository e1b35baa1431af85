// Package hang turns a test phase that never returns into a failure of the
// test that started it. A lock that strands a reader flag or loses a wake
// blocks its callers forever; go test's -timeout would then kill the whole
// binary, naming no test. Guard fails the running test within its bound
// instead.
//
// The package imports nothing from this repository, so every test package
// can use it, those that the conformance suite (rwlock/rwlocktest) itself
// imports included.
package hang

import (
	"sync/atomic"
	"testing"
	"time"
)

// hung records that a guarded phase overran. Its goroutines stay blocked
// or spinning for the rest of the test binary, so every later Guard or
// CheckNotHung fails at once instead of letting its test time out behind
// them.
var hung atomic.Bool

// Guard runs f on its own goroutine and fails t if f has not returned
// within d. f may report with t.Error but must not call t.Fatal.
func Guard(t testing.TB, d time.Duration, f func()) {
	t.Helper()
	CheckNotHung(t)
	// The timer is armed before f starts, so a guarded AllocsPerRun
	// never counts its allocation.
	timer := time.NewTimer(d)
	defer timer.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-timer.C:
		hung.Store(true)
		t.Fatalf("still blocked after %v", d)
	}
}

// CheckNotHung fails t at once if an earlier guarded phase in this test
// binary overran its guard.
func CheckNotHung(t testing.TB) {
	t.Helper()
	if hung.Load() {
		t.Fatal("not run: an earlier guarded phase hung and its goroutines still run")
	}
}
