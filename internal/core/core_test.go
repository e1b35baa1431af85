package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/env"
	"sprwl/internal/hang"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/stats"
)

// waitGuard bounds each guarded phase of a test: the sections it runs on
// the lock. Every guarded phase finishes in well under a second, -race
// included. A reader that returns still flagged, or a writer that retires
// without its wake, leaves later sections blocked forever; see
// hang.Guard.
const waitGuard = 10 * time.Second

// testSetup builds a space, runtime, arena and SpRWL lock.
func testSetup(t *testing.T, threads int, cfg htm.Config, opts Options) (*Lock, env.Env, *memmodel.Arena, *stats.Collector) {
	t.Helper()
	hang.CheckNotHung(t)
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
	l, err := New(e, ar, threads, 8, opts, col.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return l, e, ar, col
}

func TestNewValidation(t *testing.T) {
	space := htm.MustNewSpace(htm.Config{Threads: 2, Words: 1 << 12})
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	if _, err := New(e, ar, 0, 1, DefaultOptions(), nil); err == nil {
		t.Fatal("New accepted zero threads")
	}
	if _, err := New(e, ar, 5, 1, DefaultOptions(), nil); err == nil {
		t.Fatal("New accepted more threads than the environment has slots")
	}
	if _, err := New(e, ar, 1, 1, Options{Tracking: TrackAuto + 1}, nil); err == nil {
		t.Fatal("New accepted an unknown Tracking value")
	}
}

func TestVariantNames(t *testing.T) {
	tests := []struct {
		opts Options
		want string
	}{
		{DefaultOptions(), "SpRWL"},
		{NoSchedOptions(), "SpRWL-NoSched"},
		{RWaitOptions(), "SpRWL-RWait"},
		{RSyncOptions(), "SpRWL-RSync"},
		{SNZIOptions(), "SpRWL-SNZI"},
	}
	for _, tt := range tests {
		l, _, _, _ := testSetup(t, 2, htm.Config{}, tt.opts)
		if got := l.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestWordsCoversLayout(t *testing.T) {
	for _, n := range []int{1, 2, 8, 17, 56, 64} {
		space := htm.MustNewSpace(htm.Config{Threads: min(n, htm.MaxThreads), Words: Words(n) + memmodel.LineWords})
		e := htm.NewRuntime(space, nil)
		ar := memmodel.NewArena(0, memmodel.Addr(Words(n)))
		if _, err := New(e, ar, min(n, htm.MaxThreads), 1, DefaultOptions(), nil); err != nil {
			t.Fatalf("threads=%d: New within Words(%d) arena failed: %v", n, n, err)
		}
	}
}

// TestShortReaderCommitsInHTM: with ReaderHTMFirst and a body that fits,
// the read must commit as a hardware transaction (§3.4 keeps SpRWL
// competitive with TLE on short readers).
func TestShortReaderCommitsInHTM(t *testing.T) {
	l, _, ar, col := testSetup(t, 2, htm.Config{}, DefaultOptions())
	data := ar.AllocLines(1)
	h := l.NewHandle(0)
	h.Read(0, func(acc memmodel.Accessor) { _ = acc.Load(data) })
	s := col.Snapshot()
	if got := s.Commits[stats.Reader][env.ModeHTM]; got != 1 {
		t.Fatalf("HTM reader commits = %d, want 1 (snapshot: %s)", got, s)
	}
}

// TestLongReaderFallsBackUninstrumented: a reader exceeding the read
// capacity must abort once with capacity and complete uninstrumented —
// the paper's headline mechanism.
func TestLongReaderFallsBackUninstrumented(t *testing.T) {
	l, _, ar, col := testSetup(t, 2, htm.Config{Threads: 2, Words: 1 << 14, ReadCapacityLines: 4}, DefaultOptions())
	data := ar.AllocLines(16)
	h := l.NewHandle(0)
	h.Read(0, func(acc memmodel.Accessor) {
		for i := 0; i < 16; i++ {
			_ = acc.Load(data + memmodel.Addr(i*memmodel.LineWords))
		}
	})
	s := col.Snapshot()
	if got := s.Commits[stats.Reader][env.ModeUninstrumented]; got != 1 {
		t.Fatalf("uninstrumented reader commits = %d, want 1 (snapshot: %s)", got, s)
	}
	if got := s.Aborts[stats.Reader][env.AbortCapacity]; got != 1 {
		t.Fatalf("reader capacity aborts = %d, want 1", got)
	}
}

// TestWriterCommitsInHTM is the paper's Fig. 2 scenario: no reader is
// active at the writer's commit-time check, so the writer commits in
// hardware.
func TestFig2WriterCommitsInHTM(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), NoSchedOptions(), SNZIOptions()} {
		l, e, ar, col := testSetup(t, 2, htm.Config{}, opts)
		data := ar.AllocLines(1)
		h := l.NewHandle(0)
		h.Write(0, func(acc memmodel.Accessor) { acc.Store(data, 7) })
		if got := e.Load(data); got != 7 {
			t.Fatalf("%s: data = %d, want 7", l.Name(), got)
		}
		s := col.Snapshot()
		if got := s.Commits[stats.Writer][env.ModeHTM]; got != 1 {
			t.Fatalf("%s: HTM writer commits = %d, want 1 (%s)", l.Name(), got, s)
		}
	}
}

// TestWriterAbortsOnActiveReader is the paper's Fig. 1 scenario: a writer
// whose commit-time check finds an active uninstrumented reader must abort
// with the "reader" cause (and, here, eventually fall back to the global
// lock, where it waits for the reader to finish).
func TestFig1WriterAbortsOnActiveReader(t *testing.T) {
	for _, opts := range []Options{NoSchedOptions(), func() Options {
		o := NoSchedOptions()
		o.Tracking = TrackSNZI
		return o
	}()} {
		// Force the long-reader path immediately so the reader parks
		// uninstrumented.
		opts.ReaderHTMFirst = false
		l, e, ar, col := testSetup(t, 2, htm.Config{}, opts)
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
			l.NewHandle(1).Write(1, func(acc memmodel.Accessor) {
				acc.Store(data, 1)
			})
			writerDone.Store(true)
		}()

		// The writer cannot complete while the reader is inside.
		time.Sleep(20 * time.Millisecond)
		if writerDone.Load() {
			t.Fatal("writer completed while a reader was active")
		}
		close(readerGo)
		wg.Wait()
		if got := e.Load(data); got != 1 {
			t.Fatalf("data = %d after writer, want 1", got)
		}
		s := col.Snapshot()
		if got := s.Aborts[stats.Writer][env.AbortReader]; got == 0 {
			t.Fatalf("no reader-caused writer aborts recorded (%s)", s)
		}
		if s.Commits[stats.Writer][env.ModeHTM]+s.Commits[stats.Writer][env.ModeGL] != 1 {
			t.Fatalf("writer did not complete exactly once (%s)", s)
		}
	}
}

// TestReaderSyncDefersToActiveWriter: with reader synchronization, a reader
// arriving while a writer is advertised must wait until the writer's flag
// clears (§3.2.1 fairness).
func TestReaderSyncDefersToActiveWriter(t *testing.T) {
	opts := RSyncOptions()
	opts.ReaderHTMFirst = false
	l, e, _, _ := testSetup(t, 3, htm.Config{}, opts)

	// Simulate an active writer on slot 0.
	e.Store(l.clockWAddr(0), e.Now()+1_000_000)
	e.Store(l.stateAddr(0), stateWriter)

	entered := make(chan struct{})
	go func() {
		l.NewHandle(1).Read(0, func(acc memmodel.Accessor) {})
		close(entered)
	}()

	select {
	case <-entered:
		t.Fatal("reader entered while a writer was advertised")
	case <-time.After(20 * time.Millisecond):
	}
	// While waiting, the reader must advertise whom it waits for.
	if got := e.Load(l.waitingForAddr(1)); got != 1 {
		t.Fatalf("waiting_for[1] = %d, want 1 (writer slot 0 + 1)", got)
	}
	// Writer completes: retire store, then wake (the protocol every
	// writer-retire path follows — a parked reader needs the wake).
	e.Store(l.stateAddr(0), stateEmpty)
	l.wakes.Wake(l.stateAddr(0))
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked after writer cleared")
	}
	if got := e.Load(l.waitingForAddr(1)); got != 0 {
		t.Fatalf("waiting_for[1] = %d after entry, want 0", got)
	}
}

// TestJoinWaiters: a second reader must join the first one's wait (same
// writer target) instead of scanning for its own, per Alg. 2's shortcut.
func TestJoinWaiters(t *testing.T) {
	opts := RSyncOptions()
	opts.ReaderHTMFirst = false
	l, e, _, _ := testSetup(t, 4, htm.Config{}, opts)

	// Writer 0 active with a predicted end already in the past, so the
	// §3.4 timed wait returns at once and the reader blocks on the state
	// word; writer 1 active with a later one. A lone reader would pick
	// writer 1 (max clock); a joining reader must adopt the first
	// waiter's choice instead.
	e.Store(l.clockWAddr(0), e.Now())
	e.Store(l.stateAddr(0), stateWriter)
	e.Store(l.clockWAddr(1), e.Now()+1)
	e.Store(l.stateAddr(1), stateWriter)
	// Reader 2 is already waiting for writer 0.
	e.Store(l.waitingForAddr(2), 1)

	entered := make(chan struct{})
	go func() {
		l.NewHandle(3).Read(0, func(acc memmodel.Accessor) {})
		close(entered)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for e.Load(l.waitingForAddr(3)) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("reader 3 waits for %d, want to join reader 2's wait for writer 0", e.Load(l.waitingForAddr(3)))
		}
		time.Sleep(time.Millisecond)
	}
	e.Store(l.stateAddr(0), stateEmpty)
	l.wakes.Wake(l.stateAddr(0))
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("joined reader still blocked after writer cleared")
	}
}

// TestSnapshotConsistency is the core safety property across all variants
// (the guarantee Figs. 1 and 2 illustrate): writers keep two separate-line
// words equal inside every critical section; readers — uninstrumented or
// not — must never observe them unequal.
func TestSnapshotConsistency(t *testing.T) {
	variants := map[string]Options{
		"NoSched":      NoSchedOptions(),
		"RWait":        RWaitOptions(),
		"RSync":        RSyncOptions(),
		"SpRWL":        DefaultOptions(),
		"SNZI":         SNZIOptions(),
		"VersionedSGL": func() Options { o := DefaultOptions(); o.VersionedSGL = true; return o }(),
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			const (
				readers = 3
				writers = 2
				rounds  = 200
			)
			threads := readers + writers
			l, _, ar, _ := testSetup(t, threads, htm.Config{Threads: threads, Words: 1 << 14}, opts)
			x := ar.AllocLines(1)
			y := ar.AllocLines(1)
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
							vx := acc.Load(x)
							vy := acc.Load(y)
							if vx != vy {
								t.Errorf("torn snapshot: x=%d y=%d", vx, vy)
							}
						})
					}
				}(writers + r)
			}
			wg.Wait()
		})
	}
}

// TestWritersSerializeUnderForcedFallback: with spurious aborts on every
// transactional access, every writer lands on the global-lock path and must
// still serialize correctly with uninstrumented readers.
func TestWritersSerializeUnderForcedFallback(t *testing.T) {
	const threads = 4
	opts := DefaultOptions()
	l, e, ar, col := testSetup(t, threads, htm.Config{Threads: threads, Words: 1 << 14, SpuriousEvery: 1}, opts)
	ctr := ar.AllocLines(1)
	var wg sync.WaitGroup
	for s := 0; s < threads; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.NewHandle(slot)
			for i := 0; i < 100; i++ {
				h.Write(0, func(acc memmodel.Accessor) {
					acc.Store(ctr, acc.Load(ctr)+1)
				})
			}
		}(s)
	}
	wg.Wait()
	if got := e.Load(ctr); got != threads*100 {
		t.Fatalf("counter = %d, want %d", got, threads*100)
	}
	s := col.Snapshot()
	if got := s.Commits[stats.Writer][env.ModeGL]; got != threads*100 {
		t.Fatalf("GL commits = %d, want all %d (snapshot: %s)", got, threads*100, s)
	}
}

// TestVersionedSGLAdmitsReaderPastNewerWriter exercises §3.3: a reader
// waiting on the fallback lock stops deferring once the lock version moves
// past the one it registered against, entering while the (gated) newer
// writer still holds the lock.
func TestVersionedSGLAdmitsReaderPastNewerWriter(t *testing.T) {
	opts := DefaultOptions()
	opts.VersionedSGL = true
	opts.ReaderHTMFirst = false
	l, e, _, _ := testSetup(t, 2, htm.Config{}, opts)

	l.gl.Lock() // fallback writer #1 holds the lock

	inCS := make(chan struct{})
	done := make(chan struct{})
	go func() {
		l.NewHandle(1).Read(0, func(acc memmodel.Accessor) {
			close(inCS)
		})
		close(done)
	}()

	// Wait for the reader to register its observed version.
	deadline := time.Now().Add(2 * time.Second)
	for e.Load(l.readerVerAddr(1)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reader never registered against the versioned SGL")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-inCS:
		t.Fatal("reader entered while version had not moved")
	case <-time.After(10 * time.Millisecond):
	}

	// Fallback writer #2 takes over: version bumps while the lock stays
	// held (bump-then-wake, as lockGL does). The reader must now enter.
	e.Add(l.glVer, 1)
	l.gl.Wake()
	select {
	case <-inCS:
	case <-time.After(2 * time.Second):
		t.Fatal("reader still deferring after the version moved past it")
	}
	<-done
	// The registration must have been retired.
	if got := e.Load(l.readerVerAddr(1)); got != 0 {
		t.Fatalf("readerVer[1] = %d after CS, want 0", got)
	}
	l.gl.Unlock()
}

// TestEstimatorLearnsDurations: the sampling thread's executions feed the
// EMA used by the scheduling heuristics.
func TestEstimatorLearnsDurations(t *testing.T) {
	l, _, ar, _ := testSetup(t, 2, htm.Config{}, DefaultOptions())
	data := ar.AllocLines(1)
	h := l.NewHandle(0) // slot 0 is the sampling thread
	for i := 0; i < 5; i++ {
		h.Write(3, func(acc memmodel.Accessor) { acc.Store(data, uint64(i)) })
	}
	if _, ok := l.est.Duration(3); !ok {
		t.Fatal("estimator has no sample for cs 3 after sampling-thread executions")
	}
}

// TestConcurrentMixedWorkload hammers a counter array from mixed
// readers/writers across every variant, verifying the total and that reads
// observe monotonically consistent sums.
func TestConcurrentMixedWorkload(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), SNZIOptions()} {
		const (
			threads = 6
			rounds  = 150
			cells   = 4
		)
		l, e, ar, _ := testSetup(t, threads, htm.Config{Threads: threads, Words: 1 << 14}, opts)
		base := ar.AllocLines(cells)
		cell := func(i int) memmodel.Addr { return base + memmodel.Addr(i*memmodel.LineWords) }
		var wg sync.WaitGroup
		for s := 0; s < threads; s++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				h := l.NewHandle(slot)
				for i := 0; i < rounds; i++ {
					if slot%2 == 0 {
						h.Write(0, func(acc memmodel.Accessor) {
							// Move a unit between cells: sum invariant.
							from, to := i%cells, (i+1)%cells
							acc.Store(cell(from), acc.Load(cell(from))-1)
							acc.Store(cell(to), acc.Load(cell(to))+1)
						})
					} else {
						h.Read(1, func(acc memmodel.Accessor) {
							var sum uint64
							for c := 0; c < cells; c++ {
								sum += acc.Load(cell(c))
							}
							if sum != 0 {
								t.Errorf("%s: reader saw sum %d, want 0", l.Name(), sum)
							}
						})
					}
				}
			}(s)
		}
		wg.Wait()
		var sum uint64
		for c := 0; c < cells; c++ {
			sum += e.Load(cell(c))
		}
		if sum != 0 {
			t.Fatalf("%s: final sum = %d, want 0", l.Name(), sum)
		}
	}
}
