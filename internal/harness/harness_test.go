package harness

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/stats"
	"sprwl/internal/tpcc"
	"sprwl/internal/workload"
)

func TestBuildLockKnowsEveryAlgorithm(t *testing.T) {
	for _, name := range AllAlgorithms() {
		space := htm.MustNewSpace(htm.Config{Threads: 4, Words: LockWords(4) + 1024})
		e := htm.NewRuntime(space, nil)
		ar := memmodel.NewArena(0, space.Size())
		l, err := BuildLock(name, e, ar, 4, 4, stats.NewCollector(4).Pipeline())
		if err != nil {
			t.Errorf("BuildLock(%q): %v", name, err)
			continue
		}
		if l.Name() == "" {
			t.Errorf("BuildLock(%q): empty Name", name)
		}
	}
}

func TestBuildLockRejectsUnknown(t *testing.T) {
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 12})
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	if _, err := BuildLock("bogus", e, ar, 1, 1, nil); err == nil {
		t.Fatal("BuildLock accepted an unknown algorithm")
	}
}

func smallHashmapCfg() Hashmap {
	return Hashmap{Buckets: 128, Items: 8192, LookupsPerRead: 10, UpdatePercent: 10}
}

// TestRunPointIsDeterministic runs each workload twice from the same
// config: the two points must be identical and nonempty.
func TestRunPointIsDeterministic(t *testing.T) {
	for name, wl := range map[string]Workload{
		"hashmap":   smallHashmapCfg(),
		"rangescan": RangeScan{Items: 2048, ScanSpan: 64, UpdatePercent: 10},
		"tpcc": TPCC{
			Scale: tpcc.Config{Warehouses: 4, CustomersPerDistrict: 16, Items: 256},
			Mix:   workload.PaperMix(),
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := PointConfig{
				Algo: AlgoSpRWL, Threads: 4, Profile: htm.Power8(),
				Workload: wl, Horizon: 200_000, Seed: 3,
			}
			a, err := RunPoint(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunPoint(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("identical configs produced different points:\n%+v\n%+v", a, b)
			}
			if a.Ops == 0 {
				t.Fatal("point completed zero operations")
			}
		})
	}
}

// TestSimulatedPointIgnoresGOMAXPROCS: a simulated figure must not depend
// on the host that regenerates it. The real runtime sizes SpRWL-Auto's
// BRAVO table from GOMAXPROCS, so one quick extauto point (16-lookup
// readers, where the table size moves throughput by a third) must come out
// identical at GOMAXPROCS 1 and 8.
func TestSimulatedPointIgnoresGOMAXPROCS(t *testing.T) {
	p := htm.Power8()
	wl := hashmapFor(p)
	wl.LookupsPerRead = 16
	wl.UpdatePercent = 50
	cfg := PointConfig{
		Algo: AlgoSpRWLAuto, Threads: 32, Profile: p,
		Workload: wl, Horizon: DefaultHorizon / 8, Seed: 1,
	}
	run := func(procs int) Point {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pt, err := RunPoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	if one, eight := run(1), run(8); one != eight {
		t.Fatalf("point depends on GOMAXPROCS:\n  1: %+v\n  8: %+v", one, eight)
	}
}

// TestHeadlineShape is the core qualitative claim of the paper at miniature
// scale: with long readers, SpRWL clearly outperforms TLE, whose readers
// collapse onto the serial fallback lock.
func TestHeadlineShape(t *testing.T) {
	run := func(algo string) Point {
		pt, err := RunPoint(PointConfig{
			Algo: algo, Threads: 8, Profile: htm.Power8(),
			Workload: smallHashmapCfg(), Horizon: 400_000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	sprwl := run(AlgoSpRWL)
	tle := run(AlgoTLE)
	if sprwl.Throughput < 2*tle.Throughput {
		t.Fatalf("SpRWL (%.1f) not clearly above TLE (%.1f) with long readers", sprwl.Throughput, tle.Throughput)
	}
	if sprwl.UninsShare < 0.5 {
		t.Fatalf("SpRWL uninstrumented share = %.2f, expected the majority of commits", sprwl.UninsShare)
	}
	if tle.GLShare < 0.5 {
		t.Fatalf("TLE GL share = %.2f, expected fallback-dominated execution", tle.GLShare)
	}
}

// TestConcurrentTPCCStaysConsistent runs the paper's TPC-C mix on the real
// concurrent runtime under every algorithm, with Broadwell's capacity
// limits so long transactions fall back, and then checks the database's
// consistency conditions. The simulated Fig. 7 points never call Check.
// All workers share one warehouse, so their writers contend: with BRLock's
// writer locking removed, Check failed in 12 of 20 runs on 2 CPUs.
func TestConcurrentTPCCStaysConsistent(t *testing.T) {
	const threads, ops = 4, 1000
	scale := tpcc.Config{Warehouses: 1}
	scale.Validate()
	rCap, wCap := htm.Broadwell().EffectiveCapacity(threads)
	for _, algo := range AllAlgorithms() {
		t.Run(algo, func(t *testing.T) {
			space := htm.MustNewSpace(htm.Config{
				Threads:            threads,
				Words:              workload.TPCCWords(scale) + LockWords(threads),
				ReadCapacityLines:  rCap,
				WriteCapacityLines: wCap,
			})
			e := htm.NewRuntime(space, nil)
			ar := memmodel.NewArena(0, space.Size())
			col := stats.NewCollector(threads)
			lock, err := BuildLock(algo, e, ar, threads, workload.NumTPCCCS, col.Pipeline())
			if err != nil {
				t.Fatal(err)
			}
			db := workload.SetupTPCC(space, ar, scale, workload.PaperMix(), 1)
			var wg sync.WaitGroup
			for slot := 0; slot < threads; slot++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					step := db.Worker(lock.NewHandle(slot), slot, 1, e.Now)
					for i := 0; i < ops; i++ {
						step()
					}
				}(slot)
			}
			wg.Wait()
			if got := col.Snapshot().TotalOps(); got != threads*ops {
				t.Fatalf("completed %d transactions, want %d", got, threads*ops)
			}
			if err := db.DB.Check(space); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestThreadSweeps(t *testing.T) {
	full := threadSweep(htm.Broadwell(), false)
	quick := threadSweep(htm.Broadwell(), true)
	if len(quick) >= len(full) {
		t.Fatalf("quick sweep (%d points) not thinner than full (%d)", len(quick), len(full))
	}
	p8 := threadSweep(htm.Power8(), false)
	if p8[len(p8)-1] > htm.MaxThreads {
		t.Fatalf("power8 sweep exceeds the simulator's %d-slot limit", htm.MaxThreads)
	}
}

// failAfter accepts n writes and fails every later one, like a file on a
// full device.
type failAfter struct{ n int }

var errDeviceFull = errors.New("device full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errDeviceFull
	}
	w.n--
	return len(p), nil
}

// TestReportCSVWriteError: a failed write of the header or of any row is
// returned, not dropped.
func TestReportCSVWriteError(t *testing.T) {
	rep := &Report{ID: "figX", Sections: []Section{{
		Title:  "10% update",
		Points: []Point{{Algo: "SpRWL"}, {Algo: "TLE"}},
	}}}
	for n := 0; n < 3; n++ { // header, first row, second row
		if err := rep.CSV(&failAfter{n: n}); !errors.Is(err, errDeviceFull) {
			t.Errorf("CSV failing at write %d returned %v, want %v", n, err, errDeviceFull)
		}
	}
	if err := rep.CSV(&failAfter{n: 3}); err != nil {
		t.Errorf("CSV with every write succeeding returned %v", err)
	}
}

func TestReportFormatAndCSV(t *testing.T) {
	rep := &Report{
		ID: "figX", Title: "test figure",
		Notes: []string{"a note"},
		Sections: []Section{{
			Title: "10% update",
			Points: []Point{
				{Algo: "SpRWL", Threads: 8, Ops: 100, Cycles: 1000, Throughput: 12.5, UninsShare: 0.9},
				{Algo: "TLE", Threads: 8, Ops: 10, Cycles: 1000, Throughput: 1.5, GLShare: 0.95},
			},
		}},
	}
	var text, csv strings.Builder
	rep.Format(&text)
	if err := rep.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figX", "test figure", "a note", "SpRWL", "TLE", "10% update"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("Format output missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[1], "figX,10% update,SpRWL,8,") {
		t.Fatalf("unexpected CSV row: %q", lines[1])
	}

	best, ok := rep.Best("SpRWL", "")
	if !ok || best.Throughput != 12.5 {
		t.Fatalf("Best(SpRWL) = %+v,%v", best, ok)
	}
	if _, ok := rep.Best("nope", ""); ok {
		t.Fatal("Best found a nonexistent algorithm")
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	exps := Experiments()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "extscan", "extauto", "extvsgl"} {
		if exps[id] == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

// TestQuickFigureRunsEndToEnd runs the smallest full figure (fig5 at quick
// settings with a tiny horizon) through the registry to cover the sweep
// plumbing.
func TestQuickFigureRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure plumbing test is slow under -short")
	}
	rep, err := Fig5(RunOpts{Quick: true, Horizon: 80_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sections) == 0 || len(rep.Sections[0].Points) == 0 {
		t.Fatal("fig5 produced no points")
	}
}

// TestParallelSweepIsOrderStable is the determinism contract of the
// parallel driver: the same figure run serially and with a worker pool must
// produce byte-identical reports.
func TestParallelSweepIsOrderStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure plumbing test is slow under -short")
	}
	run := func(parallel int) []byte {
		rep, err := Fig5(RunOpts{Quick: true, Horizon: 80_000, Seed: 1, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, []*Report{rep}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	pooled := run(4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("parallel sweep diverged from serial run:\nserial: %d bytes\npooled: %d bytes", len(serial), len(pooled))
	}
}
