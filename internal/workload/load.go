package workload

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/obs"
	"sprwl/internal/stats"
	"sprwl/internal/tsc"
)

// LoadConfig shapes the KV load generator behind sprwl-serve. The
// generator is an open loop: arrivals are scheduled on a fixed global
// timetable (arrival k at start + k/Rate), workers pull tickets from a
// shared counter, and each op's latency is measured from its *scheduled*
// arrival to completion. An op that finds the system backed up pays its queueing
// delay, which is what a serving system's tail actually looks like; a
// closed loop, where each worker issues its next op when the previous one
// returns, would hide it (coordinated omission). perfbench owns the
// closed-loop measurement of the same KV.
type LoadConfig struct {
	// Workers is the number of client goroutines (one table slot each).
	Workers int
	// Duration is how long arrivals are generated for.
	Duration time.Duration
	// Rate is the total target arrival rate in ops/sec, in (0, 1e9].
	Rate float64
	// ReadPercent is the fraction of point ops that are Gets (the rest
	// split evenly between Put and Delete).
	ReadPercent int
	// ScanPercent is the fraction of all ops that are whole-table range
	// scans of ScanSpan keys.
	ScanPercent int
	// ScanSpan is the scan length in keys; 0 defaults to 128.
	ScanSpan int
	// MultiPercent is the fraction of all ops that are MultiPut spans of
	// MultiWidth keys.
	MultiPercent int
	// MultiWidth is the multi-put span width; 0 defaults to 4.
	MultiWidth int
	// ZipfTheta is the key-popularity skew (0 = uniform, 0.99 = YCSB).
	ZipfTheta float64
	// Seed makes op streams deterministic.
	Seed uint64
	// Stop, when non-nil, ends the run early (cleanly, stats intact)
	// once the channel is closed — sprwl-serve wires SIGINT here.
	Stop <-chan struct{}
}

// sleepMarginNs is how long before an arrival a worker stops sleeping and
// yield-spins instead. A host sleep overshoots by about 1 ms on a loaded
// 2-vCPU machine, so a narrower margin wakes the worker late and its
// latencies measure the timer, not the lock. The margin is twice that
// overshoot; a worker whose arrivals come closer together never sleeps.
const sleepMarginNs = 2_000_000

// maxRate is the highest arrival rate RunLoad accepts: one arrival per
// nanosecond. Above it the timetable's step rounds to zero, so no arrival
// is ever scheduled past the deadline and the run would never end.
const maxRate = 1e9

// Validate fills defaults. It rejects a Rate outside (0, maxRate] (NaN
// included), a percentage outside [0, 100], and scan and multi-put shares
// summing past 100: one draw in [0, 100) picks both, so the excess
// multi-puts would never run.
func (c *LoadConfig) Validate() error {
	if !(c.Rate > 0 && c.Rate <= maxRate) {
		return fmt.Errorf("rate %v ops/s: outside (0, %g]", c.Rate, float64(maxRate))
	}
	for _, p := range []struct {
		name string
		v    int
	}{{"read", c.ReadPercent}, {"scan", c.ScanPercent}, {"multi", c.MultiPercent}} {
		if p.v < 0 || p.v > 100 {
			return fmt.Errorf("%s percent %d: outside [0, 100]", p.name, p.v)
		}
	}
	if c.ScanPercent+c.MultiPercent > 100 {
		return fmt.Errorf("scan percent %d + multi percent %d: exceeds 100", c.ScanPercent, c.MultiPercent)
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.ScanSpan <= 0 {
		c.ScanSpan = 128
	}
	if c.MultiWidth <= 0 {
		c.MultiWidth = 4
	}
	return nil
}

// LoadResult is one load run's outcome. Latencies are nanoseconds (the
// wall clock reports ns as cycles), percentile values are histogram-bucket
// upper bounds, and reader/writer split follows the op's lock side: Get
// and Scan are readers, Put/Delete/MultiPut writers.
type LoadResult struct {
	Elapsed  time.Duration `json:"elapsed_ns"`
	Ops      uint64        `json:"ops"`
	Reads    uint64        `json:"reads"`
	Writes   uint64        `json:"writes"`
	Scans    uint64        `json:"scans"`
	Multis   uint64        `json:"multis"`
	Lagged   uint64        `json:"lagged"` // arrivals that started late
	ThruOpsS float64       `json:"throughput_ops_per_sec"`

	ReaderMeanNs float64 `json:"reader_mean_ns"`
	WriterMeanNs float64 `json:"writer_mean_ns"`
	ReaderP50Ns  uint64  `json:"reader_p50_ns"`
	ReaderP99Ns  uint64  `json:"reader_p99_ns"`
	ReaderP999Ns uint64  `json:"reader_p999_ns"`
	WriterP50Ns  uint64  `json:"writer_p50_ns"`
	WriterP99Ns  uint64  `json:"writer_p99_ns"`
	WriterP999Ns uint64  `json:"writer_p999_ns"`
}

// RunLoad drives kv with cfg and returns the merged result. The driver
// owns its own stats pipeline: per-op latencies are recorded as EvSection
// events into per-worker obs rings (scheduled-arrival → completion), kept
// separate from whatever pipeline the lock table itself reports into. It
// returns Validate's error for a config it cannot run.
func RunLoad(kv *KV, cfg LoadConfig) (LoadResult, error) {
	if err := cfg.Validate(); err != nil {
		return LoadResult{}, err
	}
	col := stats.NewCollector(cfg.Workers)
	pipe := col.Pipeline()
	clock := tsc.WallClock{}

	var (
		tickets atomic.Uint64
		lagged  atomic.Uint64
		scans   atomic.Uint64
		multis  atomic.Uint64
	)
	interval := 1e9 / cfg.Rate
	start := clock.Now()
	deadline := start + uint64(cfg.Duration)

	// Early stop: a watcher flips the flag when cfg.Stop closes; workers
	// poll it once per op.
	var stopped atomic.Bool
	done := make(chan struct{})
	if cfg.Stop != nil {
		go func() {
			select {
			case <-cfg.Stop:
				stopped.Store(true)
			case <-done:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		c := kv.NewClient(w)
		ring := pipe.Thread(w)
		wg.Add(1)
		go func(w int, c *Client, ring *obs.Ring) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)+71))
			zipf := NewZipf(kv.Items(), cfg.ZipfTheta, cfg.Seed*1009+uint64(w))
			mkeys := make([]uint64, cfg.MultiWidth)
			var nLag, nScan, nMulti uint64
			for !stopped.Load() {
				// Admission: pull the next global ticket and wait for
				// its scheduled arrival.
				k := tickets.Add(1) - 1
				sched := start + uint64(float64(k)*interval)
				if sched >= deadline {
					break
				}
				if now := clock.Now(); now < sched {
					// Coarse sleep, then yield-spin the last stretch.
					if sched-now > sleepMarginNs {
						time.Sleep(time.Duration(sched - now - sleepMarginNs))
					}
					for clock.Now() < sched {
						runtime.Gosched()
					}
				} else if now > sched {
					nLag++
				}

				kind := obs.Reader
				cs := csKVGet
				switch p := rng.IntN(100); {
				case p < cfg.ScanPercent:
					c.Scan(zipf.Next(), cfg.ScanSpan)
					cs = csKVScan
					nScan++
				case p < cfg.ScanPercent+cfg.MultiPercent:
					for i := range mkeys {
						mkeys[i] = zipf.Next()
					}
					c.MultiPut(mkeys, uint64(sched))
					kind, cs = obs.Writer, csKVMulti
					nMulti++
				case rng.IntN(100) < cfg.ReadPercent:
					c.Get(zipf.Next())
				case rng.IntN(2) == 0:
					c.Put(zipf.Next(), uint64(sched))
					kind, cs = obs.Writer, csKVPut
				default:
					c.Delete(zipf.Next())
					kind, cs = obs.Writer, csKVDelete
				}
				ring.Section(kind, cs, env.ModeUninstrumented, sched, clock.Now())
			}
			lagged.Add(nLag)
			scans.Add(nScan)
			multis.Add(nMulti)
		}(w, c, ring)
	}
	wg.Wait()
	close(done)
	elapsed := clock.Now() - start

	snap := col.Snapshot()
	res := LoadResult{
		Elapsed:  time.Duration(elapsed),
		Ops:      snap.TotalOps(),
		Reads:    snap.TotalCommits(stats.Reader),
		Writes:   snap.TotalCommits(stats.Writer),
		Scans:    scans.Load(),
		Multis:   multis.Load(),
		Lagged:   lagged.Load(),
		ThruOpsS: float64(snap.TotalOps()) / (float64(elapsed) / 1e9),

		ReaderP50Ns:  snap.Percentile(stats.Reader, 0.50),
		ReaderP99Ns:  snap.Percentile(stats.Reader, 0.99),
		ReaderP999Ns: snap.Percentile(stats.Reader, 0.999),
		WriterP50Ns:  snap.Percentile(stats.Writer, 0.50),
		WriterP99Ns:  snap.Percentile(stats.Writer, 0.99),
		WriterP999Ns: snap.Percentile(stats.Writer, 0.999),
	}
	if n := snap.LatencyCount[stats.Reader]; n > 0 {
		res.ReaderMeanNs = float64(snap.LatencyCycles[stats.Reader]) / float64(n)
	}
	if n := snap.LatencyCount[stats.Writer]; n > 0 {
		res.WriterMeanNs = float64(snap.LatencyCycles[stats.Writer]) / float64(n)
	}
	return res, nil
}
