package workload

import (
	"testing"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
	"sprwl/internal/stats"
	"sprwl/internal/tle"
	"sprwl/internal/tpcc"
)

func TestHashmapConfigDefaults(t *testing.T) {
	var c HashmapConfig
	c.Validate()
	if c.Buckets <= 0 || c.Items <= 0 || c.LookupsPerRead <= 0 || c.Headroom <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	c2 := HashmapConfig{UpdatePercent: 150}
	c2.Validate()
	if c2.UpdatePercent != 100 {
		t.Fatalf("UpdatePercent not clamped: %d", c2.UpdatePercent)
	}
}

func TestSetupHashmapPopulates(t *testing.T) {
	cfg := HashmapConfig{Buckets: 64, Items: 1024, LookupsPerRead: 2, UpdatePercent: 50}
	space := htm.MustNewSpace(htm.Config{Threads: 2, Words: HashmapWords(cfg) + 1024})
	ar := memmodel.NewArena(0, space.Size())
	hm := SetupHashmap(space, ar, cfg, 2)
	if got := hm.Map.Len(space); got != 1024 {
		t.Fatalf("populated %d items, want 1024", got)
	}
	if fp := hm.ReaderFootprintLines(); fp != 2*(1024/64) {
		t.Fatalf("ReaderFootprintLines = %d, want %d", fp, 2*(1024/64))
	}
}

// TestHashmapWorkerPreservesPopulation: balanced inserts/deletes over the
// populated key space keep the map size within a reasonable band and never
// corrupt the structure.
func TestHashmapWorkerPreservesPopulation(t *testing.T) {
	cfg := HashmapConfig{Buckets: 32, Items: 512, LookupsPerRead: 3, UpdatePercent: 60}
	space := htm.MustNewSpace(htm.Config{Threads: 2, Words: HashmapWords(cfg) + tleWords()})
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	col := stats.NewCollector(2)
	lock := tle.New(e, ar, col.Pipeline())
	hm := SetupHashmap(space, ar, cfg, 2)

	step := hm.Worker(lock.NewHandle(0), 0, 7)
	for i := 0; i < 2000; i++ {
		step()
	}
	size := hm.Map.Len(space)
	if size < 512/2 || size > 512*2 {
		t.Fatalf("map size drifted to %d from 512 under balanced updates", size)
	}
	s := col.Snapshot()
	if s.TotalOps() != 2000 {
		t.Fatalf("ops = %d, want 2000", s.TotalOps())
	}
	wantUpdates := float64(s.TotalCommits(stats.Writer)) / 2000
	if wantUpdates < 0.5 || wantUpdates > 0.7 {
		t.Fatalf("update fraction = %.2f, want ~0.60", wantUpdates)
	}
}

func tleWords() int { return 16 * memmodel.LineWords }

func TestPaperMixSumsTo100(t *testing.T) {
	if got := PaperMix().total(); got != 100 {
		t.Fatalf("paper mix totals %d, want 100", got)
	}
}

// TestTPCCWorkerMixRatios: over many steps the observed read/write split
// must match the mix (35% read-only in the paper's mix).
func TestTPCCWorkerMixRatios(t *testing.T) {
	scale := tpcc.Config{Warehouses: 2, CustomersPerDistrict: 16, Items: 128, OrderRing: 64}
	scale.Validate()
	space := htm.MustNewSpace(htm.Config{Threads: 2, Words: TPCCWords(scale) + tleWords()})
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	col := stats.NewCollector(2)
	lock := tle.New(e, ar, col.Pipeline())
	db := SetupTPCC(space, ar, scale, PaperMix(), 3)

	var now uint64
	step := db.Worker(lock.NewHandle(0), 0, 3, func() uint64 { now++; return now })
	const steps = 3000
	for i := 0; i < steps; i++ {
		step()
	}
	s := col.Snapshot()
	readFrac := float64(s.TotalCommits(stats.Reader)) / float64(steps)
	if readFrac < 0.30 || readFrac > 0.40 {
		t.Fatalf("read-only fraction = %.3f, want ~0.35", readFrac)
	}
}

// TestTPCCWorkerDeterministicInputs: the same seed yields the same
// transaction sequence (required for reproducible simulations).
func TestTPCCWorkerDeterministicInputs(t *testing.T) {
	run := func() uint64 {
		scale := tpcc.Config{Warehouses: 1, CustomersPerDistrict: 8, Items: 64, OrderRing: 32}
		scale.Validate()
		space := htm.MustNewSpace(htm.Config{Threads: 1, Words: TPCCWords(scale) + tleWords()})
		e := htm.NewRuntime(space, nil)
		ar := memmodel.NewArena(0, space.Size())
		lock := tle.New(e, ar, nil)
		db := SetupTPCC(space, ar, scale, PaperMix(), 11)
		var now uint64
		step := db.Worker(lock.NewHandle(0), 0, 11, func() uint64 { now++; return now })
		for i := 0; i < 500; i++ {
			step()
		}
		// Fingerprint the whole database.
		var sum uint64
		for a := memmodel.Addr(0); a < space.Size(); a += 3 {
			sum = sum*31 + space.Load(a)
		}
		return sum
	}
	if run() != run() {
		t.Fatal("TPC-C worker not deterministic across identical runs")
	}
}

// TestWorkerBodiesAreRetrySafe is the check on the paper's §3 body
// contract: an HTM body may run several times, so everything it does
// outside its accessor stores must be safe to repeat. Each workload runs
// single-threaded from a fixed seed on a replayEnv that aborts every k-th
// attempt after its body has finished; every op result, the final
// structure contents and the node pool's next blocks must match the run
// with no replays.
func TestWorkerBodiesAreRetrySafe(t *testing.T) {
	for _, c := range replayCases {
		t.Run(c.name, func(t *testing.T) {
			if c.locks == nil {
				replayDifferential(t, c.run, "")
				return
			}
			for _, lock := range c.locks {
				t.Run(lock, func(t *testing.T) { replayDifferential(t, c.run, lock) })
			}
		})
	}
}

var _ rwlock.Lock = (*tle.TLE)(nil)

func TestRangeScanConfigDefaults(t *testing.T) {
	var c RangeScanConfig
	c.Validate()
	if c.Items <= 0 || c.ScanSpan <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	c2 := RangeScanConfig{UpdatePercent: -5}
	c2.Validate()
	if c2.UpdatePercent != 0 {
		t.Fatalf("UpdatePercent not clamped: %d", c2.UpdatePercent)
	}
}

// TestRangeScanWorkerBoundedPopulation: the ordered-map workload's key
// space is fixed, so the node population can never exceed Items and the
// structure stays valid under churn.
func TestRangeScanWorkerBoundedPopulation(t *testing.T) {
	cfg := RangeScanConfig{Items: 512, ScanSpan: 64, UpdatePercent: 70}
	space := htm.MustNewSpace(htm.Config{Threads: 2, Words: RangeScanWords(cfg) + tleWords()})
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	lock := tle.New(e, ar, nil)
	rs := SetupRangeScan(space, ar, cfg, 2)
	if got := rs.List.Len(space); got != 512 {
		t.Fatalf("populated %d items, want 512", got)
	}
	step := rs.Worker(lock.NewHandle(0), 0, 3)
	for i := 0; i < 3000; i++ {
		step()
	}
	size := rs.List.Len(space)
	if size > 512 {
		t.Fatalf("population grew to %d beyond the %d key space", size, 512)
	}
	if size < 100 {
		t.Fatalf("population collapsed to %d under balanced updates", size)
	}
	// Ordered traversal still sound.
	count, _ := rs.List.Range(space, 0, 512)
	if count != size {
		t.Fatalf("Range count %d != Len %d", count, size)
	}
}
