// Benchmarks: one per paper figure (driving the same deterministic
// discrete-event harness as cmd/sprwl-bench, at reduced horizons) plus
// library-plane micro-benchmarks of the real concurrent implementation.
//
// The per-figure benchmarks report the regenerated series' key quantity as
// a custom metric (virtual ops per million cycles); "who wins" comparisons
// live in EXPERIMENTS.md, produced by cmd/sprwl-bench over full horizons.
package sprwl_test

import (
	"testing"

	"sprwl"
	"sprwl/internal/env"
	"sprwl/internal/harness"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/tpcc"
	"sprwl/internal/workload"
)

const benchHorizon = 500_000 // virtual cycles per simulated point

// benchHashmapPoint runs one simulated hashmap point per b.N iteration and
// reports its virtual throughput.
func benchHashmapPoint(b *testing.B, algo string, threads, lookups, updatePct int, p htm.Profile, items int) {
	b.Helper()
	var last harness.Point
	for i := 0; i < b.N; i++ {
		pt, err := harness.RunPoint(harness.PointConfig{
			Algo: algo, Threads: threads, Profile: p,
			Workload: harness.Hashmap{
				Buckets: 512, Items: items,
				LookupsPerRead: lookups, UpdatePercent: updatePct,
			},
			Horizon: benchHorizon, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = pt
	}
	b.ReportMetric(last.Throughput, "vops/Mcyc")
	b.ReportMetric(100*last.AbortRate, "abort%")
}

// Figure 3: long readers (10 lookups), Broadwell and POWER8.
func BenchmarkFig3_Broadwell_SpRWL(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWL, 14, 10, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig3_Broadwell_TLE(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoTLE, 14, 10, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig3_Broadwell_RWL(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoRWL, 14, 10, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig3_Broadwell_BRLock(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoBRLock, 14, 10, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig3_Power8_SpRWL(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWL, 16, 10, 10, htm.Power8(), 65536)
}
func BenchmarkFig3_Power8_RWLE(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoRWLE, 16, 10, 10, htm.Power8(), 65536)
}

// Figure 4: short readers (1 lookup) — TLE's favourable regime.
func BenchmarkFig4_Broadwell_SpRWL(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWL, 14, 1, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig4_Broadwell_TLE(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoTLE, 14, 1, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig4_Power8_SpRWL(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWL, 16, 1, 10, htm.Power8(), 65536)
}
func BenchmarkFig4_Power8_TLE(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoTLE, 16, 1, 10, htm.Power8(), 65536)
}

// Figure 5: scheduling ablation at 10% updates on Broadwell.
func BenchmarkFig5_NoSched(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWLNoSched, 14, 10, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig5_RWait(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWLRWait, 14, 10, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig5_RSync(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWLRSync, 14, 10, 10, htm.Broadwell(), 131072)
}
func BenchmarkFig5_SpRWL(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWL, 14, 10, 10, htm.Broadwell(), 131072)
}

// Figure 6: flag-array vs SNZI reader tracking, POWER8, 50% updates.
func BenchmarkFig6_Flags_LongReaders(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWL, 32, 64, 50, htm.Power8(), 65536)
}
func BenchmarkFig6_SNZI_LongReaders(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWLSNZI, 32, 64, 50, htm.Power8(), 65536)
}
func BenchmarkFig6_Flags_ShortReaders(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWL, 32, 1, 50, htm.Power8(), 65536)
}
func BenchmarkFig6_SNZI_ShortReaders(b *testing.B) {
	benchHashmapPoint(b, harness.AlgoSpRWLSNZI, 32, 1, 50, htm.Power8(), 65536)
}

// Figure 7: TPC-C with the paper's mix.
func benchTPCCPoint(b *testing.B, algo string, threads int, p htm.Profile) {
	b.Helper()
	var last harness.Point
	for i := 0; i < b.N; i++ {
		pt, err := harness.RunPoint(harness.PointConfig{
			Algo: algo, Threads: threads, Profile: p,
			Workload: harness.TPCC{
				Scale: tpcc.Config{Warehouses: threads, CustomersPerDistrict: 48, Items: 1024},
				Mix:   workload.PaperMix(),
			},
			Horizon: benchHorizon, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = pt
	}
	b.ReportMetric(last.Throughput, "vops/Mcyc")
	b.ReportMetric(100*last.GLShare, "GL%")
}

func BenchmarkFig7_Broadwell_SpRWL(b *testing.B) {
	benchTPCCPoint(b, harness.AlgoSpRWL, 14, htm.Broadwell())
}
func BenchmarkFig7_Broadwell_TLE(b *testing.B) {
	benchTPCCPoint(b, harness.AlgoTLE, 14, htm.Broadwell())
}
func BenchmarkFig7_Power8_SpRWL(b *testing.B) { benchTPCCPoint(b, harness.AlgoSpRWL, 16, htm.Power8()) }
func BenchmarkFig7_Power8_RWLE(b *testing.B)  { benchTPCCPoint(b, harness.AlgoRWLE, 16, htm.Power8()) }

// Library-plane micro-benchmarks: per-operation costs of the real
// concurrent implementation (ns/op is meaningful here).

func BenchmarkHTMUninstrumentedLoad(b *testing.B) {
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 12})
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += space.Load(memmodel.Addr(i & 511))
	}
	_ = sink
}

func BenchmarkHTMSmallTransaction(b *testing.B) {
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 12})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
			tx.Store(0, tx.Load(0)+1)
		})
	}
}

func BenchmarkSpRWLUncontendedWrite(b *testing.B) {
	l := sprwl.MustNew(sprwl.Config{Threads: 1, Words: sprwl.MinWords(1) + 1024})
	data := l.Arena().AllocLines(1)
	h := l.Handle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Write(0, func(m sprwl.Accessor) { m.Store(data, uint64(i)) })
	}
}

func BenchmarkSpRWLUncontendedShortRead(b *testing.B) {
	l := sprwl.MustNew(sprwl.Config{Threads: 1, Words: sprwl.MinWords(1) + 1024})
	data := l.Arena().AllocLines(1)
	h := l.Handle(0)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		h.Read(0, func(m sprwl.Accessor) { sink += m.Load(data) })
	}
	_ = sink
}

func BenchmarkSpRWLUncontendedLongRead(b *testing.B) {
	// 512 lines: over Power8's capacity, so the read takes the
	// uninstrumented path after one capacity abort.
	l := sprwl.MustNew(sprwl.Config{Threads: 1, Words: sprwl.MinWords(1) + 1<<14, Machine: sprwl.Power8()})
	region := l.Arena().AllocLines(512)
	h := l.Handle(0)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		h.Read(0, func(m sprwl.Accessor) {
			for j := 0; j < 512; j++ {
				sink += m.Load(region + sprwl.Addr(j*8))
			}
		})
	}
	_ = sink
}
