package hang

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recorder is a testing.TB whose fatal failures are recorded, and which
// ends only the goroutine that fails, as t.Fatal ends a test's.
type recorder struct {
	testing.TB
	mu     sync.Mutex
	fatals []string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatal(args ...any) { r.fail(fmt.Sprint(args...)) }

func (r *recorder) Fatalf(format string, args ...any) { r.fail(fmt.Sprintf(format, args...)) }

func (r *recorder) fail(msg string) {
	r.mu.Lock()
	r.fatals = append(r.fatals, msg)
	r.mu.Unlock()
	runtime.Goexit()
}

func (r *recorder) failures() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fatals)
}

// inGoroutine runs f on a goroutine of its own and waits for it to end,
// normally or through a recorded failure.
func inGoroutine(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	<-done
}

// TestGuard checks both outcomes of a guarded phase and that a hang fails
// every later guard at once. It releases its blocked phase before it
// returns and then clears the hang it recorded.
func TestGuard(t *testing.T) {
	t.Cleanup(func() { hung.Store(false) })
	r := &recorder{TB: t}
	ran := false
	inGoroutine(func() { Guard(r, time.Second, func() { ran = true }) })
	if !ran || r.failures() != 0 {
		t.Fatalf("a phase that returns: ran %v, failures %q", ran, r.fatals)
	}

	release := make(chan struct{})
	defer close(release)
	inGoroutine(func() { Guard(r, 10*time.Millisecond, func() { <-release }) })
	if r.failures() != 1 {
		t.Fatalf("a phase that blocks: failures %q, want one", r.fatals)
	}

	later := false
	inGoroutine(func() { Guard(r, time.Second, func() { later = true }) })
	inGoroutine(func() { CheckNotHung(r) })
	if later || r.failures() != 3 {
		t.Fatalf("after a hang: the next phase ran %v, failures %q, want three", later, r.fatals)
	}
}
