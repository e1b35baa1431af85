package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwlock"
	"sprwl/internal/stats"
)

// testEnv bundles a small simulated address space with the real runtime.
func testEnv(t *testing.T, threads int) (env.Env, *memmodel.Arena) {
	t.Helper()
	space, err := htm.NewSpace(htm.Config{Threads: threads, Words: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	e := htm.NewRuntime(space, nil)
	return e, memmodel.NewArena(0, space.Size())
}

// lockMaker builds one lock implementation over an environment.
type lockMaker struct {
	name string
	make func(e env.Env, ar *memmodel.Arena, threads int, pipe *obs.Pipeline) rwlock.Lock
}

func allLocks() []lockMaker {
	return []lockMaker{
		{"RWL", func(e env.Env, ar *memmodel.Arena, _ int, pipe *obs.Pipeline) rwlock.Lock {
			return NewRWL(e, ar, pipe)
		}},
		{"BRLock", func(e env.Env, ar *memmodel.Arena, n int, pipe *obs.Pipeline) rwlock.Lock {
			return NewBRLock(e, ar, n, pipe)
		}},
	}
}

func TestSpinMutexMutualExclusion(t *testing.T) {
	const threads = 4
	e, ar := testEnv(t, threads)
	m := NewSpinMutex(e, ar.AllocLines(1))
	ctr := ar.AllocLines(1)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				m.Lock()
				e.Store(ctr, e.Load(ctr)+1)
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := e.Load(ctr); got != threads*200 {
		t.Fatalf("counter = %d, want %d", got, threads*200)
	}
}

func TestSpinMutexTryLock(t *testing.T) {
	e, ar := testEnv(t, 1)
	m := NewSpinMutex(e, ar.AllocLines(1))
	if !m.TryLock() {
		t.Fatal("TryLock failed on free mutex")
	}
	if m.TryLock() {
		t.Fatal("TryLock succeeded on held mutex")
	}
	if !m.IsLocked() {
		t.Fatal("IsLocked false while held")
	}
	m.Unlock()
	if m.IsLocked() {
		t.Fatal("IsLocked true after Unlock")
	}
}

// TestWriterMutualExclusion: concurrent writers increment a counter
// non-atomically; any lost update means two writers overlapped.
func TestWriterMutualExclusion(t *testing.T) {
	const (
		threads = 4
		rounds  = 150
	)
	for _, lm := range allLocks() {
		t.Run(lm.name, func(t *testing.T) {
			e, ar := testEnv(t, threads)
			l := lm.make(e, ar, threads, nil)
			ctr := ar.AllocLines(1)
			var wg sync.WaitGroup
			for slot := 0; slot < threads; slot++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := l.NewHandle(slot)
					for j := 0; j < rounds; j++ {
						h.Write(0, func(acc memmodel.Accessor) {
							v := acc.Load(ctr)
							runtime.Gosched() // widen any race window
							acc.Store(ctr, v+1)
						})
					}
				}()
			}
			wg.Wait()
			if got := e.Load(ctr); got != threads*rounds {
				t.Fatalf("counter = %d, want %d", got, threads*rounds)
			}
		})
	}
}

// TestReadersExcludeWriters: a writer keeps an invariant pair briefly
// inconsistent inside its critical section; readers must never observe the
// inconsistency.
func TestReadersExcludeWriters(t *testing.T) {
	const (
		readers = 3
		rounds  = 150
	)
	for _, lm := range allLocks() {
		t.Run(lm.name, func(t *testing.T) {
			threads := readers + 1
			e, ar := testEnv(t, threads)
			l := lm.make(e, ar, threads, nil)
			x := ar.AllocLines(1)
			y := ar.AllocLines(1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // writer on slot 0
				defer wg.Done()
				h := l.NewHandle(0)
				for j := 0; j < rounds; j++ {
					h.Write(0, func(acc memmodel.Accessor) {
						acc.Store(x, acc.Load(x)+1)
						runtime.Gosched()
						acc.Store(y, acc.Load(y)+1)
					})
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					h := l.NewHandle(slot)
					for j := 0; j < rounds; j++ {
						h.Read(1, func(acc memmodel.Accessor) {
							vx := acc.Load(x)
							vy := acc.Load(y)
							if vx != vy {
								t.Errorf("reader saw torn state x=%d y=%d", vx, vy)
							}
						})
					}
				}(1 + r)
			}
			wg.Wait()
		})
	}
}

// TestReadersCanOverlap: at least two readers must be inside their critical
// sections simultaneously at some point — read-read concurrency is the whole
// point of an RWLock.
func TestReadersCanOverlap(t *testing.T) {
	const readers = 4
	for _, lm := range allLocks() {
		t.Run(lm.name, func(t *testing.T) {
			e, ar := testEnv(t, readers)
			l := lm.make(e, ar, readers, nil)
			var active, maxActive atomic.Int64
			var wg sync.WaitGroup
			// Deadline-based, not a fixed attempt count: under -race on a
			// narrow, loaded machine the scheduler can legally serialize a
			// bounded number of short read sections without ever
			// co-scheduling two readers.
			deadline := time.Now().Add(5 * time.Second)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					h := l.NewHandle(slot)
					for maxActive.Load() < 2 && time.Now().Before(deadline) {
						h.Read(0, func(acc memmodel.Accessor) {
							n := active.Add(1)
							for o := maxActive.Load(); n > o; o = maxActive.Load() {
								if maxActive.CompareAndSwap(o, n) {
									break
								}
							}
							runtime.Gosched()
							active.Add(-1)
						})
					}
				}(r)
			}
			wg.Wait()
			if maxActive.Load() < 2 {
				t.Fatalf("readers never overlapped (max concurrency %d)", maxActive.Load())
			}
		})
	}
}

// TestWriterNotStarvedByReaderStream: with a continuous stream of readers,
// a writer must still complete. RWL is writer-preferring and BRLock
// writers take every mutex — both guarantee this.
func TestWriterNotStarvedByReaderStream(t *testing.T) {
	const readers = 3
	for _, lm := range allLocks() {
		t.Run(lm.name, func(t *testing.T) {
			threads := readers + 1
			e, ar := testEnv(t, threads)
			l := lm.make(e, ar, threads, nil)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					h := l.NewHandle(slot)
					for {
						select {
						case <-stop:
							return
						default:
						}
						h.Read(0, func(acc memmodel.Accessor) {})
					}
				}(1 + r)
			}
			writerDone := make(chan struct{})
			go func() {
				h := l.NewHandle(0)
				for j := 0; j < 50; j++ {
					h.Write(1, func(acc memmodel.Accessor) {})
				}
				close(writerDone)
			}()
			<-writerDone // test timeout is the starvation detector
			close(stop)
			wg.Wait()
		})
	}
}

func TestStatsRecorded(t *testing.T) {
	for _, lm := range allLocks() {
		t.Run(lm.name, func(t *testing.T) {
			e, ar := testEnv(t, 2)
			col := stats.NewCollector(2)
			l := lm.make(e, ar, 2, col.Pipeline())
			h := l.NewHandle(0)
			h.Read(0, func(acc memmodel.Accessor) {})
			h.Write(1, func(acc memmodel.Accessor) {})
			h.Write(1, func(acc memmodel.Accessor) {})
			s := col.Snapshot()
			if got := s.TotalCommits(stats.Reader); got != 1 {
				t.Fatalf("reader commits = %d, want 1", got)
			}
			if got := s.TotalCommits(stats.Writer); got != 2 {
				t.Fatalf("writer commits = %d, want 2", got)
			}
			if got := s.CommitShare(env.ModePessimistic); got != 1 {
				t.Fatalf("pessimistic share = %f, want 1", got)
			}
		})
	}
}

func TestLockNames(t *testing.T) {
	e, ar := testEnv(t, 2)
	names := map[string]bool{}
	for _, lm := range allLocks() {
		names[lm.make(e, ar, 2, nil).Name()] = true
	}
	for _, want := range []string{"RWL", "BRLock"} {
		if !names[want] {
			t.Errorf("missing lock name %q", want)
		}
	}
}
