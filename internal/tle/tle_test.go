package tle

import (
	"sync"
	"testing"

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/stats"
)

func setup(t *testing.T, threads int, cfg htm.Config) (*TLE, env.Env, *memmodel.Arena, *stats.Collector) {
	t.Helper()
	if cfg.Threads == 0 {
		cfg.Threads = threads
	}
	if cfg.Words == 0 {
		cfg.Words = 1 << 14
	}
	space, err := htm.NewSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	col := stats.NewCollector(threads)
	return New(e, ar, col.Pipeline()), e, ar, col
}

func TestElidesInHTM(t *testing.T) {
	l, e, ar, col := setup(t, 2, htm.Config{})
	data := ar.AllocLines(1)
	h := l.NewHandle(0)
	h.Write(0, func(acc memmodel.Accessor) { acc.Store(data, 3) })
	h.Read(1, func(acc memmodel.Accessor) {
		if got := acc.Load(data); got != 3 {
			t.Errorf("read %d, want 3", got)
		}
	})
	if got := e.Load(data); got != 3 {
		t.Fatalf("data = %d, want 3", got)
	}
	s := col.Snapshot()
	if got := s.CommitShare(env.ModeHTM); got != 1 {
		t.Fatalf("HTM share = %f, want 1 (%s)", got, s)
	}
}

// TestCapacityAbortFallsBackImmediately verifies the paper's retry policy:
// a capacity abort activates the fallback at once instead of burning the
// budget.
func TestCapacityAbortFallsBackImmediately(t *testing.T) {
	l, _, ar, col := setup(t, 2, htm.Config{Threads: 2, Words: 1 << 14, ReadCapacityLines: 2})
	data := ar.AllocLines(8)
	l.NewHandle(0).Read(0, func(acc memmodel.Accessor) {
		for i := 0; i < 8; i++ {
			_ = acc.Load(data + memmodel.Addr(i*memmodel.LineWords))
		}
	})
	s := col.Snapshot()
	if got := s.Aborts[stats.Reader][env.AbortCapacity]; got != 1 {
		t.Fatalf("capacity aborts = %d, want exactly 1 (immediate fallback)", got)
	}
	if got := s.Commits[stats.Reader][env.ModeGL]; got != 1 {
		t.Fatalf("GL commits = %d, want 1 (%s)", got, s)
	}
}

// TestBudgetExhaustionFallsBack: with spurious aborts on every access the
// full budget is consumed, then the section runs under the lock.
func TestBudgetExhaustionFallsBack(t *testing.T) {
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 12, SpuriousEvery: 1})
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	col := stats.NewCollector(1)
	l := New(e, ar, col.Pipeline())
	data := ar.AllocLines(1)
	l.NewHandle(0).Write(0, func(acc memmodel.Accessor) { acc.Store(data, 1) })
	if got := e.Load(data); got != 1 {
		t.Fatalf("data = %d, want 1", got)
	}
	s := col.Snapshot()
	if got := s.TotalAborts(stats.Writer); got != DefaultRetries {
		t.Fatalf("aborts = %d, want the full budget of %d", got, DefaultRetries)
	}
	if got := s.Commits[stats.Writer][env.ModeGL]; got != 1 {
		t.Fatalf("GL commits = %d, want 1", got)
	}
}

// TestSerializability: concurrent read-modify-writes through TLE never lose
// updates, whether they commit in HTM or under the fallback lock.
func TestSerializability(t *testing.T) {
	const (
		threads = 6
		rounds  = 200
	)
	l, e, ar, _ := setup(t, threads, htm.Config{Threads: threads, Words: 1 << 14})
	ctr := ar.AllocLines(1)
	var wg sync.WaitGroup
	for s := 0; s < threads; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < rounds; i++ {
				h.Write(0, func(acc memmodel.Accessor) {
					acc.Store(ctr, acc.Load(ctr)+1)
				})
			}
		}(s)
	}
	wg.Wait()
	if got := e.Load(ctr); got != threads*rounds {
		t.Fatalf("counter = %d, want %d", got, threads*rounds)
	}
}

// TestReadersSeeConsistentPairs: TLE readers are transactional, so they
// must never observe a writer's partial update.
func TestReadersSeeConsistentPairs(t *testing.T) {
	const rounds = 300
	l, _, ar, _ := setup(t, 2, htm.Config{})
	x, y := ar.AllocLines(1), ar.AllocLines(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		h := l.NewHandle(0)
		for i := 0; i < rounds; i++ {
			h.Write(0, func(acc memmodel.Accessor) {
				v := acc.Load(x) + 1
				acc.Store(x, v)
				acc.Store(y, v)
			})
		}
	}()
	go func() {
		defer wg.Done()
		h := l.NewHandle(1)
		for i := 0; i < rounds; i++ {
			h.Read(1, func(acc memmodel.Accessor) {
				vx, vy := acc.Load(x), acc.Load(y)
				if vx != vy {
					t.Errorf("torn read: x=%d y=%d", vx, vy)
				}
			})
		}
	}()
	wg.Wait()
}

func TestName(t *testing.T) {
	l, _, _, _ := setup(t, 1, htm.Config{Threads: 1})
	if got := l.Name(); got != "TLE" {
		t.Fatalf("Name = %q, want TLE", got)
	}
}
