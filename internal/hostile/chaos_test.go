package hostile

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/core"
	"sprwl/internal/hang"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/park"
	"sprwl/internal/rwlock"
	"sprwl/internal/stats"
)

// chaosCombo is one cell of the in-process fault matrix.
type chaosCombo struct {
	name                   string
	quota, preempt, starve bool
}

// chaosMatrix is the full cross of the three perturbation arms (minus the
// empty cell, which is just the stress suite).
func chaosMatrix() []chaosCombo {
	var out []chaosCombo
	for bits := 1; bits < 8; bits++ {
		c := chaosCombo{quota: bits&1 != 0, preempt: bits&2 != 0, starve: bits&4 != 0}
		sep := ""
		for _, part := range []struct {
			on   bool
			name string
		}{{c.quota, "quota"}, {c.preempt, "preempt"}, {c.starve, "starve"}} {
			if part.on {
				c.name += sep + part.name
				sep = "+"
			}
		}
		out = append(out, c)
	}
	return out
}

// comboArtifact is the JSON record uploaded by the CI chaos job.
type comboArtifact struct {
	Combo  string       `json:"combo"`
	Events []chaosEvent `json:"events"`
	Faults uint64       `json:"faultAttributedCycles"`
}

type chaosEvent struct {
	Code  string `json:"code"`
	Start uint64 `json:"startCycles"`
	Dur   uint64 `json:"durCycles"`
}

// TestChaosMatrix runs a parked, oversubscribed reader/writer workload
// under every combination of the chaos controller's arms — GOMAXPROCS
// shrink/grow, preemption storms, park-budget starvation — and checks the
// oracle, the leak baseline, and that the injected-fault spans flowed
// through the obs pipeline into the profiler's attribution.
func TestChaosMatrix(t *testing.T) {
	LeakCheck(t)
	var artifacts []comboArtifact
	t.Cleanup(func() { writeChaosArtifact(t, artifacts) })

	for _, combo := range chaosMatrix() {
		t.Run(combo.name, func(t *testing.T) {
			// After a hung combo, fail at once: a leak check here
			// would wait out its deadline on the hung goroutines.
			hang.CheckNotHung(t)
			LeakCheck(t)
			artifacts = append(artifacts, runChaosCombo(t, combo))
		})
	}
}

// chaosGuard bounds one combo's run. A combo takes about 0.2 s, -race
// included.
const chaosGuard = 10 * time.Second

func runChaosCombo(t *testing.T, combo chaosCombo) comboArtifact {
	const (
		threads  = 4  // static slots
		dynamics = 12 // extra goroutines on dynamic handles
		runFor   = 120 * time.Millisecond
	)
	space, err := htm.NewSpace(htm.Config{Threads: threads, Words: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())

	col := stats.NewCollector(threads + 1) // +1: the chaos controller's ring
	prof := obs.NewProfileSink(threads + 1)
	prof.TrackChaos = true
	pipe := col.Pipeline(prof)

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
		ParkStarve:   combo.starve,
		MinProcs:     1,
		Interval:     time.Millisecond,
		Ring:         pipe.Thread(threads),
		Now:          e.Now,
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
	// deferred Stop still restores GOMAXPROCS and the park hook.
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
	events := chaos.Stop()
	stopped = true
	pipe.Flush()

	if park.ChaosInstalled() {
		t.Error("park chaos hook still installed after Stop")
	}
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
	if len(events) == 0 {
		t.Errorf("chaos controller recorded no perturbation windows in %v", runFor)
	}
	spans := prof.ChaosSpans()
	if len(spans) != len(events) {
		t.Errorf("profiler retained %d chaos spans, controller recorded %d", len(spans), len(events))
	}

	var faults uint64
	for _, p := range prof.Profiles() {
		faults += p.TotalFault()
	}
	t.Logf("%s: %d windows, %d writes, %d fault-attributed stall cycles",
		combo.name, len(events), wrote.Load(), faults)

	art := comboArtifact{Combo: combo.name, Faults: faults}
	for _, ev := range events {
		art.Events = append(art.Events, chaosEvent{
			Code: obs.ChaosCodeString(ev.Code), Start: ev.TS, Dur: ev.Dur,
		})
	}
	return art
}

// writeChaosArtifact dumps the matrix's chaos-event log as JSON when
// SPRWL_CHAOS_JSON names a path — the CI chaos job uploads it.
func writeChaosArtifact(t *testing.T, artifacts []comboArtifact) {
	path := os.Getenv("SPRWL_CHAOS_JSON")
	if path == "" || len(artifacts) == 0 {
		return
	}
	data, err := json.MarshalIndent(artifacts, "", "  ")
	if err != nil {
		t.Errorf("marshal chaos artifact: %v", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Errorf("write chaos artifact: %v", err)
		return
	}
	t.Logf("chaos event log: %s (%d combos)", path, len(artifacts))
}

// TestChaosControllerRestores checks the controller's teardown contract:
// GOMAXPROCS back to baseline, park hook uninstalled, all storm goroutines
// joined, every window recorded with a positive duration and a known code.
func TestChaosControllerRestores(t *testing.T) {
	LeakCheck(t)
	baseline := runtime.GOMAXPROCS(0)
	c := StartChaos(ChaosConfig{
		Seed: 42, QuotaShrink: true, PreemptStorm: true, ParkStarve: true,
		MinProcs: 1, MaxProcs: baseline + 2, Interval: time.Millisecond,
	})
	time.Sleep(20 * time.Millisecond)
	events := c.Stop()
	if got := runtime.GOMAXPROCS(0); got != baseline {
		t.Errorf("GOMAXPROCS %d after Stop, want %d", got, baseline)
	}
	if park.ChaosInstalled() {
		t.Error("park hook left installed")
	}
	if len(events) == 0 {
		t.Fatal("no perturbations in 20ms at 1ms intervals")
	}
	for _, ev := range events {
		if ev.Kind != obs.EvChaos || ev.Code >= obs.NumChaosCodes {
			t.Errorf("bad event: %+v", ev)
		}
	}
}
