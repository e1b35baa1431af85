package hostile

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/core"
	"sprwl/internal/hang"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
	"sprwl/internal/stats"
)

// chaosCombo is one cell of the in-process fault matrix.
type chaosCombo struct {
	name           string
	quota, preempt bool
}

// chaosMatrix is the full cross of the two fault arms (minus the
// empty cell, which is just the stress suite).
var chaosMatrix = []chaosCombo{
	{"quota", true, false},
	{"preempt", false, true},
	{"quota+preempt", true, true},
}

// TestChaosMatrix runs a parked, oversubscribed reader/writer workload
// under every combination of the chaos controller's arms — GOMAXPROCS
// shrink/grow and preemption storms — and checks the oracle and the leak
// baseline.
func TestChaosMatrix(t *testing.T) {
	LeakCheck(t)
	for _, combo := range chaosMatrix {
		t.Run(combo.name, func(t *testing.T) {
			// After a hung combo, fail at once: a leak check here
			// would wait out its deadline on the hung goroutines.
			hang.CheckNotHung(t)
			LeakCheck(t)
			runChaosCombo(t, combo)
		})
	}
}

// chaosGuard bounds one combo's run. A combo takes about 0.3 s, -race
// included.
const chaosGuard = 10 * time.Second

func runChaosCombo(t *testing.T, combo chaosCombo) {
	const (
		threads  = 4  // static slots
		dynamics = 12 // extra goroutines on dynamic handles
		// runFor gives the matrix about 840 ms of chaos in all: the
		// stochastic kills of DESIGN §8 need that much exposure.
		runFor = 280 * time.Millisecond
	)
	space, err := htm.NewSpace(htm.Config{Threads: threads, Words: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())

	pipe := stats.NewCollector(threads).Pipeline()

	opts := core.DefaultOptions()
	opts.UseBravo = true
	opts.BravoSlots = 4
	l := core.MustNew(e, ar, threads, 4, opts, pipe)
	data := ar.AllocLines(1)
	counter, mirror := data, data+1

	chaos := StartChaos(ChaosConfig{
		Seed:         int64(len(combo.name)) * 7919,
		QuotaShrink:  combo.quota,
		PreemptStorm: combo.preempt,
		MinProcs:     1,
		Interval:     time.Millisecond,
	})

	var stop atomic.Bool
	var wrote, torn atomic.Uint64
	worker := func(h rwlock.Handle, seed int) {
		for i := seed; !stop.Load(); i++ {
			if i%10 < 3 {
				h.Write(1, func(acc memmodel.Accessor) {
					v := acc.Load(counter) + 1
					acc.Store(counter, v)
					acc.Store(mirror, v)
				})
				wrote.Add(1)
			} else {
				// Extract inside, assert outside: transactional bodies may
				// re-execute after an abort, and an aborted attempt can
				// legally observe a torn pair.
				var vx, vy uint64
				h.Read(0, func(acc memmodel.Accessor) {
					vx, vy = acc.Load(counter), acc.Load(mirror)
				})
				if vx != vy {
					torn.Add(1)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < threads; s++ {
		wg.Add(1)
		go func(s int) { defer wg.Done(); worker(l.NewHandle(s), s) }(s)
	}
	for d := 0; d < dynamics; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			h, err := l.NewDynamicHandle()
			if err != nil {
				t.Error(err)
				return
			}
			worker(h, threads+d)
		}(d)
	}

	// A lost wake leaves workers blocked for good. The guard fails the
	// combo within seconds instead of at go test's timeout, and the
	// deferred Stop still restores GOMAXPROCS.
	stopped := false
	defer func() {
		if !stopped {
			chaos.Stop()
		}
	}()
	hang.Guard(t, chaosGuard, func() {
		time.Sleep(runFor)
		stop.Store(true)
		wg.Wait()
	})
	windows := chaos.Stop()
	stopped = true
	pipe.Flush()

	if n := torn.Load(); n != 0 {
		t.Errorf("%d torn reads under chaos", n)
	}
	var got uint64
	hang.Guard(t, chaosGuard, func() {
		l.NewHandle(0).Read(0, func(acc memmodel.Accessor) { got = acc.Load(counter) })
	})
	if got != wrote.Load() {
		t.Errorf("counter = %d, want %d committed writes", got, wrote.Load())
	}
	if len(windows) == 0 {
		t.Errorf("chaos controller recorded no fault windows in %v", runFor)
	}
	t.Logf("%s: %d windows, %d writes", combo.name, len(windows), wrote.Load())
}

// TestChaosControllerRestores checks the controller's teardown contract
// for each set of arms: GOMAXPROCS back to baseline, all storm goroutines
// joined, and every window recorded with a positive duration and an arm
// that was enabled. With no arm enabled the controller applies nothing.
func TestChaosControllerRestores(t *testing.T) {
	LeakCheck(t)
	combos := append([]chaosCombo{{name: "none"}}, chaosMatrix...)
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			baseline := runtime.GOMAXPROCS(0)
			c := StartChaos(ChaosConfig{
				Seed: 42, QuotaShrink: combo.quota, PreemptStorm: combo.preempt,
				MinProcs: 1, MaxProcs: baseline + 2, Interval: time.Millisecond,
			})
			time.Sleep(20 * time.Millisecond)
			windows := c.Stop()
			if got := runtime.GOMAXPROCS(0); got != baseline {
				t.Errorf("GOMAXPROCS %d after Stop, want %d", got, baseline)
			}
			if !combo.quota && !combo.preempt {
				if len(windows) != 0 {
					t.Errorf("no arm enabled, yet windows %+v", windows)
				}
				return
			}
			if len(windows) == 0 {
				t.Fatal("no fault windows in 20ms at 1ms intervals")
			}
			for _, w := range windows {
				enabled := w.Arm == "quota" && combo.quota || w.Arm == "preempt" && combo.preempt
				if !enabled || w.Dur <= 0 {
					t.Errorf("bad window: %+v", w)
				}
			}
		})
	}
}

// TestStartChaosDefaults checks how StartChaos fills in a partial config.
// The quota arm draws from [MinProcs, MaxProcs], so MaxProcs must never end
// up below MinProcs.
func TestStartChaosDefaults(t *testing.T) {
	baseline := runtime.GOMAXPROCS(0)
	cases := []struct {
		name     string
		cfg      ChaosConfig
		interval time.Duration
		min, max int
	}{
		{"zero", ChaosConfig{}, 2 * time.Millisecond, 1, baseline},
		{"max-unset", ChaosConfig{MinProcs: 2}, 2 * time.Millisecond, 2, max(baseline, 2)},
		{"max-below-min", ChaosConfig{MinProcs: baseline + 2, MaxProcs: 1}, 2 * time.Millisecond, baseline + 2, baseline + 2},
		{"explicit", ChaosConfig{Interval: 5 * time.Millisecond, MinProcs: 2, MaxProcs: 3}, 5 * time.Millisecond, 2, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ch := StartChaos(c.cfg) // no arm enabled: the controller only waits for Stop
			got := ch.cfg
			ch.Stop()
			if got.Interval != c.interval || got.MinProcs != c.min || got.MaxProcs != c.max {
				t.Errorf("interval/min/max = %v/%d/%d, want %v/%d/%d",
					got.Interval, got.MinProcs, got.MaxProcs, c.interval, c.min, c.max)
			}
		})
	}
}
