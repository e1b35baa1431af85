package workload

import (
	"testing"
	"time"

	"sprwl/internal/htm"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
)

func TestZipfUniformAndSkew(t *testing.T) {
	const n, draws = 1024, 200000

	// theta = 0: uniform — every rank reachable, hottest rank near 1/n.
	u := NewZipf(n, 0, 42)
	var hist [n]int
	for i := 0; i < draws; i++ {
		r := u.Next()
		if r >= n {
			t.Fatalf("uniform rank %d out of range", r)
		}
		hist[r]++
	}
	if max := maxOf(hist[:]); float64(max)/draws > 5.0/n {
		t.Fatalf("uniform hottest rank frequency %f, want near %f", float64(max)/draws, 1.0/n)
	}

	// theta = 0.99: YCSB skew — rank 0 takes a large share and ranks stay
	// in range.
	z := NewZipf(n, 0.99, 42)
	var zhist [n]int
	for i := 0; i < draws; i++ {
		r := z.Next()
		if r >= n {
			t.Fatalf("zipf rank %d out of range", r)
		}
		zhist[r]++
	}
	if share := float64(zhist[0]) / draws; share < 0.05 {
		t.Fatalf("zipf(0.99) rank-0 share %f, want heavy (> 0.05)", share)
	}
	if zhist[0] <= zhist[1] || zhist[1] <= zhist[n/2] {
		t.Fatalf("zipf not monotone: rank0 %d rank1 %d mid %d", zhist[0], zhist[1], zhist[n/2])
	}

	// Same seed, same stream.
	a, b := NewZipf(n, 0.99, 7), NewZipf(n, 0.99, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("zipf stream not deterministic")
		}
	}
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func buildKV(t testing.TB, cfg KVConfig) (*KV, *htm.Runtime) {
	t.Helper()
	cfg.Validate()
	space, err := htm.NewSpace(htm.Config{Threads: cfg.Table.Threads, Words: KVWords(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	kv, err := SetupKV(e, ar, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return kv, e
}

func TestKVOps(t *testing.T) {
	kv, _ := buildKV(t, KVConfig{
		Table: locktable.Config{Shards: 8, Threads: 2},
		Items: 512,
	})
	c := kv.NewClient(0)

	if v, ok := c.Get(100); !ok || v != 100 {
		t.Fatalf("Get(100) = %d,%v, want 100,true", v, ok)
	}
	if _, ok := c.Get(512); ok {
		t.Fatal("Get(512) found an unpopulated key")
	}
	if c.Put(100, 777) {
		t.Fatal("Put(100) reported a fresh insert for an existing key")
	}
	if v, _ := c.Get(100); v != 777 {
		t.Fatalf("Get(100) after Put = %d, want 777", v)
	}
	if !c.Delete(100) {
		t.Fatal("Delete(100) missed an existing key")
	}
	if _, ok := c.Get(100); ok {
		t.Fatal("Get(100) found a deleted key")
	}
	if !c.Put(100, 100) {
		t.Fatal("Put(100) after delete should insert fresh")
	}

	// Scan sees the full population across all shards.
	if n, _ := c.Scan(0, 512); n != 512 {
		t.Fatalf("Scan(0,512) visited %d keys, want 512", n)
	}
	if n, sum := c.Scan(10, 5); n != 5 || sum != 10+11+12+13+14 {
		t.Fatalf("Scan(10,5) = %d keys sum %d", n, sum)
	}

	// MultiPut touches only present keys, atomically.
	set := c.MultiPut([]uint64{5, 9, 512, 9}, 4242)
	if set != 3 {
		t.Fatalf("MultiPut applied %d updates, want 3 (absent key skipped, dup re-applied)", set)
	}
	for _, k := range []uint64{5, 9} {
		if v, _ := c.Get(k); v != 4242 {
			t.Fatalf("key %d = %d after MultiPut, want 4242", k, v)
		}
	}
}

func TestRunLoadOpenLoop(t *testing.T) {
	kv, _ := buildKV(t, KVConfig{
		Table: locktable.Config{Shards: 8, Threads: 4},
		Items: 1024,
	})
	res, err := RunLoad(kv, LoadConfig{
		Workers:      2,
		Duration:     100 * time.Millisecond,
		Rate:         5000,
		ReadPercent:  80,
		ScanPercent:  2,
		MultiPercent: 5,
		ZipfTheta:    0.99,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatalf("open run: %+v", res)
	}
	if res.Reads+res.Writes != res.Ops {
		t.Fatalf("open run: reads %d + writes %d != ops %d", res.Reads, res.Writes, res.Ops)
	}
	// A 5k ops/s schedule over 100ms is ~500 arrivals; the worker pool
	// must stay near the timetable, not run an op per free cycle.
	if res.Ops > 2*500+50 {
		t.Fatalf("open run issued %d ops, schedule says ~500", res.Ops)
	}
	if res.ReaderP50Ns == 0 && res.WriterP50Ns == 0 {
		t.Fatal("open run recorded no latency percentiles")
	}
}

// TestKVHotPathsDoNotAllocate is the workload allocation table: the KV
// client ops that inherit the lock table's 0 allocs/op contract, plus the
// Zipf key generator on both of its branches. Put and Delete are absent
// on purpose: the node pool's free lists grow amortized.
func TestKVHotPathsDoNotAllocate(t *testing.T) {
	kv, _ := buildKV(t, KVConfig{Table: locktable.Config{Shards: 8, Threads: 1}, Items: 512})
	c := kv.NewClient(0)
	keys := []uint64{3, 77, 150, 402}
	uniform, skewed := NewZipf(512, 0, 1), NewZipf(512, 0.99, 1)
	var sink uint64
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Get", func() { v, _ := c.Get(77); sink += v }},
		{"Scan", func() { _, s := c.Scan(100, 32); sink += s }},
		{"MultiPut", func() { sink += uint64(c.MultiPut(keys, 9)) }},
		{"ZipfUniform", func() { sink += uniform.Next() }},
		{"ZipfSkewed", func() { sink += skewed.Next() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 4; i++ {
				tc.run() // warm up the emulation's sets and span scratch
			}
			if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
				t.Errorf("allocated %.2f objects per run, want 0", avg)
			}
		})
	}
	_ = sink
}
