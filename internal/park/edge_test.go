package park

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"sprwl/internal/memmodel"
)

// Edge tests for the waiter table's less-travelled interleavings; CI's
// race job repeats them ten times. These are white-box: they reach into
// shard state to place the generation counter where years of uptime
// would.

// wordTable builds a Table over a tiny word array, returning the table, the
// backing words, and an addr whose shard we can poke directly.
func wordTable(n int) (*Table, []uint64) {
	words := make([]uint64, n)
	t := NewTable(func(a memmodel.Addr) uint64 {
		return atomic.LoadUint64(&words[int(a)])
	})
	return t, words
}

// TestWakeGenerationRollover churns Park/Wake across the shard generation
// counter wrapping ^uint64(0) → 0. The wake protocol compares generations
// for *inequality* (s.gen == g exits the sleep loop), so the wrap must be
// invisible; a hypothetical ordered comparison (gen > g) would deadlock
// every waiter registered just before the wrap.
func TestWakeGenerationRollover(t *testing.T) {
	tbl, words := wordTable(1)
	const a = memmodel.Addr(0)

	// Place every shard's generation 8 wakes away from wrapping, so the
	// churn below crosses the rollover no matter which shard a hashes to.
	for i := range tbl.shards {
		tbl.shards[i].mu.Lock()
		tbl.shards[i].gen = math.MaxUint64 - 8
		tbl.shards[i].mu.Unlock()
	}

	const rounds = 64 // generations wrap within the first few rounds
	var woken sync.WaitGroup
	for r := 0; r < rounds; r++ {
		atomic.StoreUint64(&words[0], 1)
		woken.Add(1)
		registered := make(chan struct{})
		go func() {
			close(registered)
			tbl.Park(a, 1) // sleeps until the store+wake below
			woken.Done()
		}()
		<-registered
		// Wait until the parker is actually registered so each round's
		// wake exercises the slow path (gen++ and broadcast), marching
		// the generation across the wrap.
		for tbl.Waiters() == 0 {
			// The parker is between goroutine start and registration.
		}
		atomic.StoreUint64(&words[0], 0)
		tbl.Wake(a)
		woken.Wait() // a lost wake across the wrap would hang here
	}

	s := &tbl.shards[shardIndex(a)]
	s.mu.Lock()
	g := s.gen
	s.mu.Unlock()
	if g > math.MaxUint64-8 {
		t.Fatalf("generation %d never crossed the rollover; test lost its point", g)
	}
	if tbl.Waiters() != 0 {
		t.Fatalf("%d waiters left registered after rollover churn", tbl.Waiters())
	}
}

// TestParkChangedExpectedUnderWakeStorm hammers the register-then-check
// window: parkers call Park with an expected value that concurrent
// modifiers keep invalidating while a storm of Wakes broadcasts into the
// same shards. Park must return promptly in every interleaving — value
// already changed before registration, changed between registration and
// check, or changed while asleep with the wake racing the sleep. Run with
// -count=50: the schedule dependence is the test.
func TestParkChangedExpectedUnderWakeStorm(t *testing.T) {
	tbl, words := wordTable(4)
	const (
		parkers = 8
		flips   = 40 // keeps one run ~100ms so -count=50 stays CI-sized
	)
	var stop atomic.Bool
	var storm sync.WaitGroup

	// Wake storm: broadcast into every word's shard as fast as possible.
	for w := 0; w < 2; w++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			for !stop.Load() {
				for i := range words {
					tbl.Wake(memmodel.Addr(i))
				}
			}
		}()
	}

	var parked sync.WaitGroup
	for p := 0; p < parkers; p++ {
		parked.Add(1)
		go func(p int) {
			defer parked.Done()
			a := memmodel.Addr(p % len(words))
			w := &words[int(a)]
			for i := 0; i < flips; i++ {
				// Leave the word at the expected value briefly, then
				// change it from another goroutine's store below; this
				// parker may catch any phase of that transition.
				tbl.Park(a, atomic.LoadUint64(w))
			}
		}(p)
	}

	// Modifiers: keep every word moving so each Park's expected value is
	// stale within a bounded time; pair each store with a wake
	// (store-then-wake, the waker contract).
	var mods sync.WaitGroup
	for m := 0; m < 2; m++ {
		mods.Add(1)
		go func() {
			defer mods.Done()
			for !stop.Load() {
				for i := range words {
					atomic.AddUint64(&words[i], 1)
					tbl.Wake(memmodel.Addr(i))
				}
			}
		}()
	}

	parked.Wait() // hangs iff a Park missed its wake
	stop.Store(true)
	storm.Wait()
	mods.Wait()
	if tbl.Waiters() != 0 {
		t.Fatalf("%d waiters left registered after storm", tbl.Waiters())
	}
}
