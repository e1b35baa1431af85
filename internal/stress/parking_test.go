package stress

import (
	"fmt"
	"runtime"
	"testing"

	"sprwl/internal/core"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
)

// Oversubscribed parking combo: the differential oracle check repeated
// with waiter parking enabled and far more goroutines than scheduler
// procs. This is the regime the spin-then-park refactor exists for — a
// spinning waiter burns the quantum the lock holder needs — and the regime
// most likely to expose a lost wakeup: if a phase store ever races past a
// parked waiter's registration, the herd simply hangs and the test times
// out. GOMAXPROCS is pinned low so park/wake actually carries the load
// rather than staying on the never-sleeps fast path.
const (
	parkingProcs      = 2
	parkingGoroutines = 256 // total workers: static slots + dynamic handles
)

// parkingVariants is the parking leg of the matrix: the dynamic-capable
// backends under the full scheduling preset (every wait site active:
// reader arrive/wait, writer drain, GL queueing) and the lean nosched one.
func parkingVariants() []variant {
	var vs []variant
	for _, b := range []struct {
		name  string
		apply func(*core.Options)
	}{
		{"snzi", func(o *core.Options) { o.Tracking = core.TrackSNZI }},
		{"bravo", func(o *core.Options) { o.Tracking = core.TrackBravo; o.BravoSlots = 4 }},
	} {
		for _, s := range []struct {
			name string
			base func() core.Options
		}{
			{"nosched", core.NoSchedOptions},
			{"full", core.DefaultOptions},
		} {
			o := s.base()
			b.apply(&o)
			vs = append(vs, variant{name: b.name + "/" + s.name + "/park", opts: o, dynamic: true})
		}
	}
	return vs
}

// TestStressParkingOversubscribed runs the parking matrix at 256 workers
// on 2 procs against the sequential oracle. The CI race job runs this in
// -short mode as its oversubscription smoke test.
func TestStressParkingOversubscribed(t *testing.T) {
	prev := runtime.GOMAXPROCS(parkingProcs)
	defer runtime.GOMAXPROCS(prev)

	// Far fewer ops per worker than the main matrix: the op count is
	// multiplied by 64× more workers, and the point here is wait-path
	// interleavings, not throughput.
	seeds, nops := []int64{1}, 40
	if !testing.Short() {
		seeds, nops = []int64{1, 2, 3}, 120
	}
	for _, v := range parkingVariants() {
		for _, seed := range seeds {
			v, seed := v, seed
			// Not t.Parallel(): each round wants the whole (pinned) machine,
			// and two 256-goroutine herds interleaved would just thrash.
			t.Run(fmt.Sprintf("%s/seed=%d", v.name, seed), func(t *testing.T) {
				runStress(t, v.name, seed, nops, 0, func() (rwlock.Lock, layout, func(memmodel.Addr) uint64, int) {
					return coreLock(t, v.opts, parkingGoroutines-stressThreads)
				})
			})
		}
	}
}
