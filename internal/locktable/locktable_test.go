package locktable

import (
	"sync"
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

// Guards bound how long a test waits on span calls. An uncontended span
// takes microseconds and the contended probes finish well under a second,
// -race included. A span that deadlocks or leaks a shard never returns;
// the guard turns that hang into a failure naming the stuck step, where go
// test's -timeout would kill the run without saying which span hung.
const (
	soloGuard      = 2 * time.Second  // one handle at a time, nothing contends
	contendedGuard = 10 * time.Second // goroutines contend on shared shards
)

// finish runs f on its own goroutine and fails the test, naming what, if
// f has not returned within d. f runs off the test goroutine, so it may
// report with t.Error but must not call t.Fatal. On a timeout f's
// goroutine stays blocked: nothing can release a deadlocked span.
func finish(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

// finishAll runs f(0) … f(n-1) on n goroutines released together, under
// finish with contendedGuard.
func finishAll(t *testing.T, n int, what string, f func(g int)) {
	t.Helper()
	finish(t, contendedGuard, what, func() {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f(g)
			}()
		}
		close(start)
		wg.Wait()
	})
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
	// k1 and k2 are distinct keys on one stripe; kx and ky sit on two.
	k1 := keyForShard(t, tbl, 5)
	k2 := k1 + 1
	for tbl.ShardIndex(k2) != 5 {
		k2++
	}
	kx, ky := keyForShard(t, tbl, 1), keyForShard(t, tbl, 6)

	finish(t, soloGuard, "span edge cases", func() {
		// N=0: the body runs exactly once, with no locks held.
		ran := 0
		h.ReadN(nil, 1, func(acc memmodel.Accessor) { ran++ })
		h.WriteN([]uint64{}, 0, func(acc memmodel.Accessor) { ran++ })
		if ran != 2 {
			t.Errorf("empty-span bodies ran %d times, want 2", ran)
			return
		}

		// N=1 delegates to the single-key path.
		h.WriteN([]uint64{42}, 0, func(acc memmodel.Accessor) {
			acc.Store(a, acc.Load(a)+1)
		})
		var got uint64
		h.ReadN([]uint64{42}, 1, func(acc memmodel.Accessor) { got = acc.Load(a) })
		if got != 1 || e.Load(a) != 1 {
			t.Errorf("single-key span: got %d (direct %d), want 1", got, e.Load(a))
			return
		}

		// Duplicate keys still execute the body once (an increment body
		// would otherwise double-apply).
		h.WriteN([]uint64{42, 42, 42}, 0, func(acc memmodel.Accessor) {
			acc.Store(a, acc.Load(a)+1)
		})
		if e.Load(a) != 2 {
			t.Errorf("duplicate-key span applied %d times, want once (value 2)", e.Load(a))
			return
		}

		// All keys on one shard (distinct keys, same stripe) also
		// collapses to the single-shard path.
		h.WriteN([]uint64{k1, k2}, 0, func(acc memmodel.Accessor) {
			acc.Store(a, acc.Load(a)+1)
		})
		if e.Load(a) != 3 {
			t.Errorf("one-shard span applied %d times, want once (value 3)", e.Load(a))
			return
		}

		// A genuine cross-shard span: two keys on different stripes.
		h.WriteN([]uint64{ky, kx}, 0, func(acc memmodel.Accessor) {
			acc.Store(a, acc.Load(a)+1)
		})
		var rn uint64
		h.ReadN([]uint64{kx, ky}, 1, func(acc memmodel.Accessor) { rn = acc.Load(a) })
		if rn != 4 {
			t.Errorf("cross-shard span: read %d, want 4", rn)
			return
		}

		// ReadAll holds every stripe.
		var all uint64
		h.ReadAll(1, func(acc memmodel.Accessor) { all = acc.Load(a) })
		if all != 4 {
			t.Errorf("ReadAll: read %d, want 4", all)
		}
	})
}

// TestReversedOrderAcquisition is the sort-then-lock regression test: two
// goroutines repeatedly span the same shards, each naming them in a
// different order. Without deterministic ascending shard order inside
// AcquireN (and ReadAll) one side eventually holds a shard the other
// needs while waiting on one the other holds.
//
// The writer arm alone cannot tell ascending from a consistent descending
// order: two writers that both walk downward still never deadlock. The
// reader arm can, because ReadAll always scans upward: against a WriteN
// over every shard that walks downward (or a ReadAll that walks downward
// against an ascending WriteN) the reader holds the flags of the shards it
// has passed while it waits on one the writer holds, and the writer waits
// to drain one of those flags.
func TestReversedOrderAcquisition(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, tbl *Table, e *htm.Runtime, ar *memmodel.Arena)
	}{
		{"WriterVsWriter", reversedWriters},
		{"ReadAllVsDescendingWriteN", readAllVsDescendingWriteN},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, e, ar := newTable(t, Config{Shards: 8, Threads: 4})
			tc.run(t, tbl, e, ar)
		})
	}
}

// reversedWriters runs two WriteN loops over the same two cross-shard
// keys, each naming them in the opposite order.
func reversedWriters(t *testing.T, tbl *Table, e *htm.Runtime, ar *memmodel.Arena) {
	a := ar.AllocLines(1)
	kx, ky := keyForShard(t, tbl, 2), keyForShard(t, tbl, 7)

	const iters = 2000
	finishAll(t, 2, "reversed-order writer spans", func(g int) {
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
	})
	if got := e.Load(a); got != 2*iters {
		t.Fatalf("counter = %d, want %d", got, 2*iters)
	}
}

// readAllVsDescendingWriteN runs two ReadAll loops against two loops of a
// WriteN over every shard, keys named from the highest shard down. Each
// write bumps one counter per shard; each ReadAll must see them all equal.
// A single reader and writer tend to fall into lockstep (the reader parks
// at shard 0 until the writer has released everything), which let a broken
// order slip through about one run in five; two of each overlap mid-span
// far more often.
func readAllVsDescendingWriteN(t *testing.T, tbl *Table, e *htm.Runtime, ar *memmodel.Arena) {
	n := tbl.Shards()
	keys := make([]uint64, n)
	counters := make([]memmodel.Addr, n)
	for s := 0; s < n; s++ {
		keys[n-1-s] = keyForShard(t, tbl, s)
		counters[s] = ar.AllocLines(1)
	}

	const iters = 2000
	var tornMu sync.Mutex
	var torn []uint64 // the first partial snapshot a ReadAll saw
	finishAll(t, 4, "ReadAll against a descending-key WriteN", func(g int) {
		h := tbl.NewHandle(g)
		if g%2 == 0 {
			for i := 0; i < iters; i++ {
				h.WriteN(keys, 0, func(acc memmodel.Accessor) {
					for _, c := range counters {
						acc.Store(c, acc.Load(c)+1)
					}
				})
			}
			return
		}
		vals := make([]uint64, n)
		for i := 0; i < iters; i++ {
			h.ReadAll(1, func(acc memmodel.Accessor) {
				for s, c := range counters {
					vals[s] = acc.Load(c)
				}
			})
			for _, v := range vals {
				if v != vals[0] {
					tornMu.Lock()
					if torn == nil {
						torn = append([]uint64(nil), vals...)
					}
					tornMu.Unlock()
					break
				}
			}
		}
	})
	if torn != nil {
		t.Errorf("ReadAll saw a partial WriteN: per-shard counters %v", torn)
	}
	for s, c := range counters {
		if got := e.Load(c); got != 2*iters {
			t.Errorf("shard %d counter = %d, want %d", s, got, 2*iters)
		}
	}
}

// TestSpanReleasesEveryShard is the runtime check that a span leaves
// nothing held: after one handle runs a span, a second handle must write
// every shard, one key at a time and then as one span over the whole
// table. A reader flag or fallback lock the span leaked blocks that writer
// for good, and the guard reports which span leaked it.
func TestSpanReleasesEveryShard(t *testing.T) {
	const shards = 8
	nop := func(memmodel.Accessor) {}
	// Each key set is built from perShard, which holds one key per shard.
	keySets := []struct {
		name string
		keys func(tbl *Table, perShard []uint64) []uint64
	}{
		{"Empty", func(*Table, []uint64) []uint64 { return nil }},
		{"SingleKey", func(_ *Table, k []uint64) []uint64 { return []uint64{k[3]} }},
		{"DuplicateKey", func(_ *Table, k []uint64) []uint64 { return []uint64{k[3], k[3], k[3]} }},
		{"SameShard", func(tbl *Table, k []uint64) []uint64 {
			other := k[5] + 1
			for tbl.ShardIndex(other) != 5 {
				other++
			}
			return []uint64{other, k[5]}
		}},
		{"CrossShard", func(_ *Table, k []uint64) []uint64 { return []uint64{k[6], k[1]} }},
		{"AllShards", func(_ *Table, k []uint64) []uint64 {
			keys := make([]uint64, 0, len(k))
			for s := len(k) - 1; s >= 0; s-- {
				keys = append(keys, k[s])
			}
			return keys
		}},
	}
	// check runs span on handle 0, then has handle 1 write every shard.
	check := func(t *testing.T, span func(h *Handle, perShard []uint64)) {
		tbl, _, _ := newTable(t, Config{Shards: shards, Threads: 2})
		perShard := make([]uint64, shards)
		for s := range perShard {
			perShard[s] = keyForShard(t, tbl, s)
		}
		finish(t, soloGuard, "the span itself", func() { span(tbl.NewHandle(0), perShard) })
		finish(t, soloGuard, "writing every shard after the span", func() {
			h := tbl.NewHandle(1)
			for _, k := range perShard {
				h.Write(k, 0, nop)
			}
			h.WriteN(perShard, 0, nop)
		})
	}

	for _, sp := range []struct {
		name string
		run  func(h *Handle, keys []uint64)
	}{
		{"ReadN", func(h *Handle, keys []uint64) { h.ReadN(keys, 1, nop) }},
		{"WriteN", func(h *Handle, keys []uint64) { h.WriteN(keys, 0, nop) }},
	} {
		t.Run(sp.name, func(t *testing.T) {
			for _, ks := range keySets {
				t.Run(ks.name, func(t *testing.T) {
					check(t, func(h *Handle, perShard []uint64) {
						sp.run(h, ks.keys(h.t, perShard))
					})
				})
			}
		})
	}
	t.Run("ReadAll", func(t *testing.T) {
		check(t, func(h *Handle, _ []uint64) { h.ReadAll(1, nop) })
	})
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

	finish(t, soloGuard, "hot-path allocation runs", func() {
		// Warm up the emulation's read/write sets and the span scratch
		// state.
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
	})
	_ = sink
}
