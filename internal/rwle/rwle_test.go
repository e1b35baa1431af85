package rwle

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/stats"
)

func setup(t *testing.T, threads int, cfg htm.Config) (*RWLE, env.Env, *memmodel.Arena, *stats.Collector) {
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
	return New(e, ar, threads, col.Pipeline()), e, ar, col
}

func TestUncontendedWriterCommitsHTM(t *testing.T) {
	l, e, ar, col := setup(t, 2, htm.Config{})
	data := ar.AllocLines(1)
	l.NewHandle(0).Write(0, func(acc memmodel.Accessor) { acc.Store(data, 9) })
	if got := e.Load(data); got != 9 {
		t.Fatalf("data = %d, want 9", got)
	}
	if got := col.Snapshot().Commits[stats.Writer][env.ModeHTM]; got != 1 {
		t.Fatalf("HTM commits = %d, want 1", got)
	}
}

func TestReadersAreUninstrumented(t *testing.T) {
	// A reader far beyond any read capacity must still complete without
	// a single abort: RW-LE readers never enter a transaction.
	l, _, ar, col := setup(t, 2, htm.Config{Threads: 2, Words: 1 << 14, ReadCapacityLines: 1})
	data := ar.AllocLines(32)
	l.NewHandle(0).Read(0, func(acc memmodel.Accessor) {
		for i := 0; i < 32; i++ {
			_ = acc.Load(data + memmodel.Addr(i*memmodel.LineWords))
		}
	})
	s := col.Snapshot()
	if got := s.Commits[stats.Reader][env.ModeUninstrumented]; got != 1 {
		t.Fatalf("uninstrumented commits = %d, want 1", got)
	}
	if got := s.TotalAborts(stats.Reader); got != 0 {
		t.Fatalf("reader aborts = %d, want 0", got)
	}
}

// TestWriterQuiescesBehindActiveReader: a writer must not complete while a
// reader that was active before its commit point is still inside its
// critical section.
func TestWriterQuiescesBehindActiveReader(t *testing.T) {
	l, e, ar, col := setup(t, 2, htm.Config{})
	data := ar.AllocLines(1)

	readerIn := make(chan struct{})
	readerGo := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.NewHandle(0).Read(0, func(acc memmodel.Accessor) {
			close(readerIn)
			<-readerGo
		})
	}()
	<-readerIn

	var writerDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.NewHandle(1).Write(1, func(acc memmodel.Accessor) { acc.Store(data, 1) })
		writerDone.Store(true)
	}()

	time.Sleep(20 * time.Millisecond)
	if writerDone.Load() {
		t.Fatal("writer completed during an active reader's critical section")
	}
	close(readerGo)
	wg.Wait()
	if got := e.Load(data); got != 1 {
		t.Fatalf("data = %d, want 1", got)
	}
	// The writer still holds only one completed CS.
	s := col.Snapshot()
	if got := s.TotalCommits(stats.Writer); got != 1 {
		t.Fatalf("writer commits = %d, want 1", got)
	}
}

// TestROTPathAfterCapacity: a writer whose read footprint exceeds HTM
// capacity must commit as a ROT (untracked loads), the mechanism RW-LE
// borrows from POWER8.
func TestROTPathAfterCapacity(t *testing.T) {
	l, e, ar, col := setup(t, 2, htm.Config{Threads: 2, Words: 1 << 14, ReadCapacityLines: 2})
	data := ar.AllocLines(16)
	l.NewHandle(0).Write(0, func(acc memmodel.Accessor) {
		var sum uint64
		for i := 0; i < 16; i++ { // read far beyond capacity...
			sum += acc.Load(data + memmodel.Addr(i*memmodel.LineWords))
		}
		acc.Store(data, sum+1) // ...write one line
	})
	if got := e.Load(data); got != 1 {
		t.Fatalf("data = %d, want 1", got)
	}
	s := col.Snapshot()
	if got := s.Commits[stats.Writer][env.ModeROT]; got != 1 {
		t.Fatalf("ROT commits = %d, want 1 (%s)", got, s)
	}
	if got := s.Aborts[stats.Writer][env.AbortCapacity]; got != 1 {
		t.Fatalf("capacity aborts = %d, want 1", got)
	}
}

// TestSnapshotConsistency: the RW-LE protocol (conflict aborts + reader
// quiescence) must prevent readers from observing torn writer updates.
func TestSnapshotConsistency(t *testing.T) {
	const (
		readers = 3
		writers = 2
		rounds  = 200
	)
	threads := readers + writers
	l, _, ar, _ := setup(t, threads, htm.Config{Threads: threads, Words: 1 << 14})
	x, y := ar.AllocLines(1), ar.AllocLines(1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < rounds; i++ {
				h.Write(0, func(acc memmodel.Accessor) {
					v := acc.Load(x) + 1
					acc.Store(x, v)
					acc.Store(y, v)
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < rounds; i++ {
				h.Read(1, func(acc memmodel.Accessor) {
					vx, vy := acc.Load(x), acc.Load(y)
					if vx != vy {
						t.Errorf("torn snapshot: x=%d y=%d", vx, vy)
					}
				})
			}
		}(writers + r)
	}
	wg.Wait()
}

// TestWritersSerialize: concurrent increments never lose updates across
// HTM, ROT and GL paths.
func TestWritersSerialize(t *testing.T) {
	const (
		threads = 4
		rounds  = 150
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

func TestName(t *testing.T) {
	l, _, _, _ := setup(t, 1, htm.Config{Threads: 1})
	if got := l.Name(); got != "RW-LE" {
		t.Fatalf("Name = %q, want RW-LE", got)
	}
}
