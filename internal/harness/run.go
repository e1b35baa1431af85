package harness

import (
	"fmt"

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/sim"
	"sprwl/internal/stats"
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

// HashmapPointConfig configures one simulated hashmap data point.
type HashmapPointConfig struct {
	Algo     string
	Threads  int
	Profile  htm.Profile
	Workload workload.HashmapConfig
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

// RunHashmapPoint executes one deterministic simulated measurement.
func RunHashmapPoint(cfg HashmapPointConfig) (Point, error) {
	if cfg.Horizon == 0 {
		cfg.Horizon = DefaultHorizon
	}
	cfg.Workload.Validate()
	words := workload.HashmapWords(cfg.Workload) + LockWords(cfg.Threads)
	eng, err := sim.NewEngine(sim.Config{
		Threads: cfg.Threads,
		Words:   words,
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
	lock, err := BuildLock(cfg.Algo, e, ar, cfg.Threads, workload.NumHashmapCS, pipe)
	if err != nil {
		return Point{}, err
	}
	// Everything from here on is bulk workload data (bucket chains and
	// node storage): hundreds of megabytes at paper scale, so it never
	// stays cache-resident. Lock state allocated above keeps the
	// locality-aware cost model.
	dataStart := ar.Next()
	hm := workload.SetupHashmap(space, ar, cfg.Workload, cfg.Threads)
	eng.MarkStreaming(dataStart, int(space.Size()-dataStart))

	horizon := cfg.Horizon
	cycles := eng.Run(func(slot int) {
		step := hm.Worker(lock.NewHandle(slot), slot, cfg.Seed)
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
