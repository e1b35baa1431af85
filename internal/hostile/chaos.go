package hostile

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// ChaosConfig tunes the in-process chaos controller.
type ChaosConfig struct {
	// Seed drives the controller's private rng; the same seed replays the
	// same fault schedule (modulo OS scheduling, which is the
	// point of the exercise).
	Seed int64

	// QuotaShrink enables GOMAXPROCS changes: the quota jumps
	// between MinProcs and MaxProcs mid-run, forcing the workload through
	// repeated oversubscription cliffs.
	QuotaShrink bool
	// MinProcs/MaxProcs bound the quota walk; defaults 1 and the
	// GOMAXPROCS value at Start.
	MinProcs, MaxProcs int

	// PreemptStorm enables preemption storms: bursts of OS-thread-pinned
	// goroutines (runtime.LockOSThread) that do nothing but yield in a
	// hot loop, stealing scheduler slots exactly the way a noisy
	// neighbour does.
	PreemptStorm bool

	// Interval is the mean pause between fault windows (default 2ms);
	// each window lasts one to three intervals.
	Interval time.Duration
}

// Window is one fault window the controller applied: which arm ("quota"
// or "preempt") and how long it stayed in force.
type Window struct {
	Arm string
	Dur time.Duration
}

// Chaos is a running chaos controller.
type Chaos struct {
	cfg      ChaosConfig
	stop     chan struct{}
	done     chan struct{}
	baseline int // GOMAXPROCS at Start, restored at Stop

	// windows is written only by the controller goroutine and read after
	// Stop joins it.
	windows []Window
}

// StartChaos launches the controller goroutine. Call Stop before checking
// oracles or leaks: Stop restores GOMAXPROCS and waits for in-flight storms
// to land.
func StartChaos(cfg ChaosConfig) *Chaos {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	c := &Chaos{
		cfg:      cfg,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		baseline: runtime.GOMAXPROCS(0),
	}
	if c.cfg.MinProcs < 1 {
		c.cfg.MinProcs = 1
	}
	if c.cfg.MaxProcs < c.cfg.MinProcs {
		c.cfg.MaxProcs = c.baseline
		if c.cfg.MaxProcs < c.cfg.MinProcs {
			c.cfg.MaxProcs = c.cfg.MinProcs
		}
	}
	go c.run()
	return c
}

// Stop halts the controller, restores the scheduler quota, and returns
// every fault window it applied.
func (c *Chaos) Stop() []Window {
	close(c.stop)
	<-c.done
	runtime.GOMAXPROCS(c.baseline)
	return c.windows
}

// sleep waits d or until Stop; it reports whether the controller should
// keep running.
func (c *Chaos) sleep(d time.Duration) bool {
	select {
	case <-c.stop:
		return false
	case <-time.After(d):
		return true
	}
}

func (c *Chaos) run() {
	defer close(c.done)
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	var arms []func(*rand.Rand, time.Duration)
	if c.cfg.QuotaShrink {
		arms = append(arms, c.quota)
	}
	if c.cfg.PreemptStorm {
		arms = append(arms, c.preempt)
	}
	if len(arms) == 0 {
		<-c.stop
		return
	}
	for {
		pause := c.cfg.Interval/2 + time.Duration(rng.Int63n(int64(c.cfg.Interval)))
		if !c.sleep(pause) {
			return
		}
		window := c.cfg.Interval + time.Duration(rng.Int63n(2*int64(c.cfg.Interval)))
		arms[rng.Intn(len(arms))](rng, window)
	}
}

// quota walks GOMAXPROCS to a random point in [MinProcs, MaxProcs] for one
// window, then restores the baseline.
func (c *Chaos) quota(rng *rand.Rand, window time.Duration) {
	target := c.cfg.MinProcs + rng.Intn(c.cfg.MaxProcs-c.cfg.MinProcs+1)
	start := time.Now()
	runtime.GOMAXPROCS(target)
	c.sleep(window)
	runtime.GOMAXPROCS(c.baseline)
	c.windows = append(c.windows, Window{Arm: "quota", Dur: time.Since(start)})
}

// preempt raises a storm of OS-thread-pinned yield loops for one window.
// Each spinner wires itself to an OS thread so the scheduler must displace
// a real M to run anyone else — the sharpest preemption pressure available
// from user space.
func (c *Chaos) preempt(rng *rand.Rand, window time.Duration) {
	n := 2 + rng.Intn(2*runtime.GOMAXPROCS(0))
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	c.sleep(window)
	close(stop)
	wg.Wait()
	c.windows = append(c.windows, Window{Arm: "preempt", Dur: time.Since(start)})
}
