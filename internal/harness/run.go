package harness

import (
	"fmt"

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwlock"
	"sprwl/internal/sim"
	"sprwl/internal/stats"
	"sprwl/internal/tpcc"
	"sprwl/internal/workload"
)

// DefaultHorizon is the virtual-time measurement window per data point, in
// cycles. It is sized so that even the longest critical sections (hashmap
// readers of ~200k cycles on the Broadwell workload) complete a few dozen
// times per thread.
const DefaultHorizon = 4_000_000

// Point is one measured data point: one algorithm at one thread count under
// one workload — a single x-position on one of the paper's curves.
type Point struct {
	Algo    string
	Threads int

	// Ops and Cycles yield throughput; Throughput is ops per million
	// virtual cycles (the paper's 10^5 tx/s axis, modulo clock speed).
	Ops        uint64
	Cycles     uint64
	Throughput float64

	// AbortRate is aborted hardware attempts / all hardware attempts.
	AbortRate float64
	// Abort-cause shares (of all aborts).
	ConflictShare, CapacityShare, ExplicitShare, ReaderShare float64
	// Commit-mode shares (of all completed critical sections).
	HTMShare, ROTShare, GLShare, UninsShare, PessShare float64

	// Mean and tail (p99) end-to-end latencies in cycles.
	ReaderLatency, WriterLatency float64
	ReaderP99, WriterP99         uint64
}

func pointFrom(algo string, threads int, snap stats.Snapshot, cycles uint64) Point {
	ops := snap.TotalOps()
	p := Point{
		Algo:          algo,
		Threads:       threads,
		Ops:           ops,
		Cycles:        cycles,
		AbortRate:     snap.AbortRate(),
		ConflictShare: snap.AbortShare(env.AbortConflict),
		CapacityShare: snap.AbortShare(env.AbortCapacity),
		ExplicitShare: snap.AbortShare(env.AbortExplicit),
		ReaderShare:   snap.AbortShare(env.AbortReader),
		HTMShare:      snap.CommitShare(env.ModeHTM),
		ROTShare:      snap.CommitShare(env.ModeROT),
		GLShare:       snap.CommitShare(env.ModeGL),
		UninsShare:    snap.CommitShare(env.ModeUninstrumented),
		PessShare:     snap.CommitShare(env.ModePessimistic),
		ReaderLatency: snap.MeanLatency(stats.Reader),
		WriterLatency: snap.MeanLatency(stats.Writer),
		ReaderP99:     snap.Percentile(stats.Reader, 0.99),
		WriterP99:     snap.Percentile(stats.Writer, 0.99),
	}
	if cycles > 0 {
		p.Throughput = float64(ops) / float64(cycles) * 1e6
	}
	return p
}

// Workload is the simulated application a point runs: Hashmap, RangeScan
// or TPCC.
type Workload interface {
	// footprint returns the words the workload's data needs and its
	// number of distinct critical sections, which sizes SpRWL's duration
	// estimator.
	footprint() (words, numCS int)
	// setup lays the data out in ar, populating it through acc, and
	// returns the constructor of each thread's step: one critical section
	// per call.
	setup(acc memmodel.Accessor, ar *memmodel.Arena, threads int, seed uint64, now func() uint64) func(h rwlock.Handle, slot int) func()
}

// Hashmap is the §4.1 hashmap micro-benchmark (Figs. 3–6, extauto,
// extvsgl).
type Hashmap workload.HashmapConfig

func (w Hashmap) footprint() (int, int) {
	return workload.HashmapWords(workload.HashmapConfig(w)), workload.NumHashmapCS
}

func (w Hashmap) setup(acc memmodel.Accessor, ar *memmodel.Arena, threads int, seed uint64, _ func() uint64) func(rwlock.Handle, int) func() {
	hm := workload.SetupHashmap(acc, ar, workload.HashmapConfig(w), threads)
	return func(h rwlock.Handle, slot int) func() { return hm.Worker(h, slot, seed) }
}

// RangeScan is the ordered-map range-scan workload (extscan).
type RangeScan workload.RangeScanConfig

func (w RangeScan) footprint() (int, int) {
	return workload.RangeScanWords(workload.RangeScanConfig(w)), workload.NumRangeScanCS
}

func (w RangeScan) setup(acc memmodel.Accessor, ar *memmodel.Arena, threads int, seed uint64, _ func() uint64) func(rwlock.Handle, int) func() {
	rs := workload.SetupRangeScan(acc, ar, workload.RangeScanConfig(w), threads)
	return func(h rwlock.Handle, slot int) func() { return rs.Worker(h, slot, seed) }
}

// TPCC is the TPC-C workload of Fig. 7: a database of the given scale
// driven by the given transaction mix.
type TPCC struct {
	Scale tpcc.Config
	Mix   workload.TPCCMix
}

func (w TPCC) footprint() (int, int) { return workload.TPCCWords(w.Scale), workload.NumTPCCCS }

func (w TPCC) setup(acc memmodel.Accessor, ar *memmodel.Arena, _ int, seed uint64, now func() uint64) func(rwlock.Handle, int) func() {
	db := workload.SetupTPCC(acc, ar, w.Scale, w.Mix, seed)
	return func(h rwlock.Handle, slot int) func() { return db.Worker(h, slot, seed, now) }
}

// PointConfig configures one simulated data point.
type PointConfig struct {
	Algo     string
	Threads  int
	Profile  htm.Profile
	Workload Workload
	// Horizon is the virtual measurement window; 0 selects
	// DefaultHorizon.
	Horizon uint64
	// Seed feeds the per-thread workload RNGs.
	Seed uint64
	// Sinks are extra observability sinks (trace exporters, profilers)
	// attached ahead of the stats collector. When any are present, the
	// engine also emits per-attempt transaction events (obs.EvTx).
	Sinks []obs.Sink
}

// RunPoint executes one deterministic simulated measurement.
func RunPoint(cfg PointConfig) (Point, error) {
	if cfg.Horizon == 0 {
		cfg.Horizon = DefaultHorizon
	}
	words, numCS := cfg.Workload.footprint()
	eng, err := sim.NewEngine(sim.Config{
		Threads: cfg.Threads,
		Words:   words + LockWords(cfg.Threads),
		Profile: cfg.Profile,
	})
	if err != nil {
		return Point{}, err
	}
	e := eng.Env()
	space := eng.Space()
	ar := memmodel.NewArena(0, space.Size())
	col := stats.NewCollector(cfg.Threads)
	pipe := col.Pipeline(cfg.Sinks...)
	if len(cfg.Sinks) > 0 {
		eng.AttachObs(pipe)
	}
	lock, err := BuildLock(cfg.Algo, e, ar, cfg.Threads, numCS, pipe)
	if err != nil {
		return Point{}, err
	}
	// Everything from here on is bulk workload data (bucket chains, node
	// storage, database tables): hundreds of megabytes at paper scale, so
	// it never stays cache-resident. Lock state allocated above keeps the
	// locality-aware cost model.
	dataStart := ar.Next()
	worker := cfg.Workload.setup(space, ar, cfg.Threads, cfg.Seed, e.Now)
	eng.MarkStreaming(dataStart, int(space.Size()-dataStart))

	horizon := cfg.Horizon
	cycles := eng.Run(func(slot int) {
		step := worker(lock.NewHandle(slot), slot)
		for e.Now() < horizon {
			step()
		}
	})
	return pointFrom(cfg.Algo, cfg.Threads, col.Snapshot(), cycles), nil
}

// String renders a Point compactly for logs.
func (p Point) String() string {
	return fmt.Sprintf("%s@%d: %.1f ops/Mcyc (aborts %.0f%%, HTM %.0f%%, GL %.0f%%, Unins %.0f%%)",
		p.Algo, p.Threads, p.Throughput, 100*p.AbortRate, 100*p.HTMShare, 100*p.GLShare, 100*p.UninsShare)
}
