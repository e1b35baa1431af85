package locktable

import (
	"testing"
	"time"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
)

// newTable builds a table over a real htm.Runtime with room for data words
// after the lock state.
func newTable(t testing.TB, cfg Config) (*Table, *htm.Runtime, *memmodel.Arena) {
	t.Helper()
	words := Words(cfg) + (1 << 12)
	space, err := htm.NewSpace(htm.Config{Threads: cfg.Threads, Words: words})
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	tbl, err := New(e, ar, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, e, ar
}

// keyForShard probes key values until one lands on shard s.
func keyForShard(t testing.TB, tbl *Table, s int) uint64 {
	t.Helper()
	for k := uint64(0); k < 1<<20; k++ {
		if tbl.ShardIndex(k) == s {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", s)
	return 0
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.Threads = 2
	cfg.normalize()
	if cfg.Shards < 8 || cfg.Shards&(cfg.Shards-1) != 0 {
		t.Fatalf("default shards = %d, want a power of two >= 8", cfg.Shards)
	}
	if cfg.NumCS != 16 {
		t.Fatalf("default NumCS = %d, want 16", cfg.NumCS)
	}

	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
		{MaxShards, MaxShards}, {MaxShards + 1, MaxShards},
	} {
		c := Config{Shards: tc.in, Threads: 1}
		c.normalize()
		if c.Shards != tc.want {
			t.Errorf("normalize(Shards=%d) = %d, want %d", tc.in, c.Shards, tc.want)
		}
	}
}

func TestShardRouting(t *testing.T) {
	tbl, _, _ := newTable(t, Config{Shards: 16, Threads: 1})
	if tbl.Shards() != 16 {
		t.Fatalf("Shards() = %d, want 16", tbl.Shards())
	}
	hit := make(map[int]bool)
	for k := uint64(0); k < 4096; k++ {
		s := tbl.ShardIndex(k)
		if s < 0 || s >= 16 {
			t.Fatalf("ShardIndex(%d) = %d out of range", k, s)
		}
		if s != tbl.ShardIndex(k) {
			t.Fatalf("ShardIndex(%d) unstable", k)
		}
		hit[s] = true
	}
	// splitmix64 over 4096 sequential keys must reach every one of 16
	// stripes; anything less means the mixing is broken.
	if len(hit) != 16 {
		t.Fatalf("4096 keys reached %d/16 shards", len(hit))
	}
	for i := 0; i < tbl.Shards(); i++ {
		if tbl.Shard(i) == nil {
			t.Fatalf("Shard(%d) = nil", i)
		}
		if got := tbl.Shard(i).Name(); got != "SpRWL-Auto" {
			t.Fatalf("Shard(%d) runs %s, want SpRWL-Auto", i, got)
		}
	}
}

func TestSingleKeyOps(t *testing.T) {
	tbl, e, ar := newTable(t, Config{Shards: 8, Threads: 2})
	h := tbl.NewHandle(0)
	keys := []uint64{3, 99, 12345, 7777777}
	addrs := make(map[uint64]memmodel.Addr)
	for _, k := range keys {
		addrs[k] = ar.AllocLines(1)
	}
	for i, k := range keys {
		want := uint64(i + 1)
		for j := uint64(0); j < want; j++ {
			a := addrs[k]
			h.Write(k, 0, func(acc memmodel.Accessor) {
				acc.Store(a, acc.Load(a)+1)
			})
		}
		var got uint64
		a := addrs[k]
		h.Read(k, 1, func(acc memmodel.Accessor) { got = acc.Load(a) })
		if got != want {
			t.Errorf("key %d: read %d, want %d", k, got, want)
		}
		if e.Load(a) != want {
			t.Errorf("key %d: direct load %d, want %d", k, e.Load(a), want)
		}
	}
}

// TestSpanEdgeCases covers the AcquireN degenerate paths: empty spans,
// single-key spans, duplicate keys, and spans whose keys all collapse onto
// one shard.
func TestSpanEdgeCases(t *testing.T) {
	tbl, e, ar := newTable(t, Config{Shards: 8, Threads: 2})
	h := tbl.NewHandle(0)
	a := ar.AllocLines(1)

	// N=0: the body runs exactly once, with no locks held.
	ran := 0
	h.ReadN(nil, 1, func(acc memmodel.Accessor) { ran++ })
	h.WriteN([]uint64{}, 0, func(acc memmodel.Accessor) { ran++ })
	if ran != 2 {
		t.Fatalf("empty-span bodies ran %d times, want 2", ran)
	}

	// N=1 delegates to the single-key path.
	h.WriteN([]uint64{42}, 0, func(acc memmodel.Accessor) {
		acc.Store(a, acc.Load(a)+1)
	})
	var got uint64
	h.ReadN([]uint64{42}, 1, func(acc memmodel.Accessor) { got = acc.Load(a) })
	if got != 1 || e.Load(a) != 1 {
		t.Fatalf("single-key span: got %d (direct %d), want 1", got, e.Load(a))
	}

	// Duplicate keys still execute the body once (an increment body would
	// otherwise double-apply).
	h.WriteN([]uint64{42, 42, 42}, 0, func(acc memmodel.Accessor) {
		acc.Store(a, acc.Load(a)+1)
	})
	if e.Load(a) != 2 {
		t.Fatalf("duplicate-key span applied %d times, want once (value 2)", e.Load(a))
	}

	// All keys on one shard (distinct keys, same stripe) also collapses to
	// the single-shard path.
	k1 := keyForShard(t, tbl, 5)
	var k2 uint64
	for k := k1 + 1; ; k++ {
		if tbl.ShardIndex(k) == 5 {
			k2 = k
			break
		}
	}
	h.WriteN([]uint64{k1, k2}, 0, func(acc memmodel.Accessor) {
		acc.Store(a, acc.Load(a)+1)
	})
	if e.Load(a) != 3 {
		t.Fatalf("one-shard span applied %d times, want once (value 3)", e.Load(a))
	}

	// A genuine cross-shard span: two keys on different stripes.
	kx, ky := keyForShard(t, tbl, 1), keyForShard(t, tbl, 6)
	h.WriteN([]uint64{ky, kx}, 0, func(acc memmodel.Accessor) {
		acc.Store(a, acc.Load(a)+1)
	})
	var rn uint64
	h.ReadN([]uint64{kx, ky}, 1, func(acc memmodel.Accessor) { rn = acc.Load(a) })
	if rn != 4 {
		t.Fatalf("cross-shard span: read %d, want 4", rn)
	}

	// ReadAll holds every stripe.
	var all uint64
	h.ReadAll(1, func(acc memmodel.Accessor) { all = acc.Load(a) })
	if all != 4 {
		t.Fatalf("ReadAll: read %d, want 4", all)
	}
}

// TestReversedOrderAcquisition is the sort-then-lock regression test: two
// goroutines repeatedly span the same two cross-shard keys, each naming
// them in the opposite order. Without deterministic shard ordering inside
// AcquireN this deadlocks almost immediately (A holds shard i waiting for
// j, B holds j waiting for i); with it, both goroutines acquire i then j
// regardless of argument order.
func TestReversedOrderAcquisition(t *testing.T) {
	tbl, e, ar := newTable(t, Config{Shards: 8, Threads: 2})
	a := ar.AllocLines(1)
	kx, ky := keyForShard(t, tbl, 2), keyForShard(t, tbl, 7)

	const iters = 2000
	done := make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			h := tbl.NewHandle(g)
			keys := []uint64{kx, ky}
			if g == 1 {
				keys = []uint64{ky, kx}
			}
			for i := 0; i < iters; i++ {
				h.WriteN(keys, 0, func(acc memmodel.Accessor) {
					acc.Store(a, acc.Load(a)+1)
				})
			}
			done <- struct{}{}
		}(g)
	}
	timeout := time.After(60 * time.Second)
	for g := 0; g < 2; g++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("reversed-order spans deadlocked")
		}
	}
	if got := e.Load(a); got != 2*iters {
		t.Fatalf("counter = %d, want %d", got, 2*iters)
	}
}

// TestHotPathsDoNotAllocate pins the 0 allocs/op contract of the table's
// single-key paths and of AcquireN spans (the scratch bitmap and order
// list are pre-sized per handle).
func TestHotPathsDoNotAllocate(t *testing.T) {
	tbl, _, ar := newTable(t, Config{Shards: 8, Threads: 1})
	h := tbl.NewHandle(0)
	a := ar.AllocLines(1)

	var sink uint64
	readBody := func(acc memmodel.Accessor) { sink += acc.Load(a) }
	writeBody := func(acc memmodel.Accessor) { acc.Store(a, acc.Load(a)+1) }
	key := uint64(17)
	span := []uint64{keyForShard(t, tbl, 0), keyForShard(t, tbl, 3), keyForShard(t, tbl, 6)}

	// Warm up the emulation's read/write sets and the span scratch state.
	for i := 0; i < 4; i++ {
		h.Write(key, 0, writeBody)
		h.Read(key, 1, readBody)
		h.WriteN(span, 0, writeBody)
		h.ReadN(span, 1, readBody)
	}

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Read", func() { h.Read(key, 1, readBody) }},
		{"Write", func() { h.Write(key, 0, writeBody) }},
		{"ReadN", func() { h.ReadN(span, 1, readBody) }},
		{"WriteN", func() { h.WriteN(span, 0, writeBody) }},
		{"ReadAll", func() { h.ReadAll(1, readBody) }},
	} {
		if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
			t.Errorf("%s allocated %.2f objects per run, want 0", tc.name, avg)
		}
	}
	_ = sink
}
