package sprwl

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewValidatesWords(t *testing.T) {
	if _, err := New(Config{Threads: 2, Words: 8}); err == nil {
		t.Fatal("New accepted an address space smaller than MinWords")
	}
}

func TestQuickstartFlow(t *testing.T) {
	l := MustNew(Config{Threads: 2, Words: MinWords(2) + 1024})
	data := l.Arena().AllocLines(1)
	h := l.Handle(0)
	h.Write(0, func(m Accessor) { m.Store(data, 42) })
	var got uint64
	h.Read(1, func(m Accessor) { got = m.Load(data) })
	if got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
	if s := l.Stats(); s.TotalOps() != 2 {
		t.Fatalf("stats ops = %d, want 2", s.TotalOps())
	}
	if l.Name() != "SpRWL" {
		t.Fatalf("Name = %q, want SpRWL", l.Name())
	}
}

func TestVariantsThroughFacade(t *testing.T) {
	for _, opts := range []Options{NoSchedOptions(), RWaitOptions(), RSyncOptions(), SNZIOptions()} {
		l := MustNew(Config{Threads: 2, Words: MinWords(2) + 1024, Options: opts})
		data := l.Arena().AllocLines(1)
		h := l.Handle(0)
		h.Write(0, func(m Accessor) { m.Store(data, 1) })
		h.Read(1, func(m Accessor) {
			if m.Load(data) != 1 {
				t.Errorf("%s: read wrong value", l.Name())
			}
		})
	}
}

func TestMachineProfileLimitsCapacity(t *testing.T) {
	l := MustNew(Config{Threads: 1, Words: MinWords(1) + 1<<14, Machine: Power8()})
	region := l.Arena().AllocLines(256)
	h := l.Handle(0)
	// A read touching 256 lines exceeds POWER8's 128-line capacity: it
	// must still succeed, via the uninstrumented path.
	h.Read(0, func(m Accessor) {
		for i := 0; i < 256; i++ {
			_ = m.Load(region + Addr(i*8))
		}
	})
	s := l.Stats()
	if s.TotalOps() != 1 {
		t.Fatalf("ops = %d, want 1", s.TotalOps())
	}
}

func TestConcurrentUseThroughFacade(t *testing.T) {
	const threads = 4
	l := MustNew(Config{Threads: threads, Words: MinWords(threads) + 4096})
	x := l.Arena().AllocLines(1)
	y := l.Arena().AllocLines(1)
	var wg sync.WaitGroup
	for s := 0; s < threads; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := l.Handle(slot)
			for i := 0; i < 200; i++ {
				if slot == 0 {
					h.Write(0, func(m Accessor) {
						v := m.Load(x) + 1
						m.Store(x, v)
						m.Store(y, v)
					})
				} else {
					h.Read(1, func(m Accessor) {
						if vx, vy := m.Load(x), m.Load(y); vx != vy {
							t.Errorf("torn read: %d vs %d", vx, vy)
						}
					})
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestDynamicHandle: DynamicHandle needs a slot-free reader indicator, so
// it fails under DefaultOptions (TrackFlags). Under TrackSNZI and TrackAuto,
// dynamic readers and writers, beyond Config.Threads and beside slot
// handles, keep the root Example's invariant: a writer keeps a counter
// pair equal and no reader sees it apart. Stats counts only the slot
// handles' sections.
func TestDynamicHandle(t *testing.T) {
	if _, err := MustNew(Config{Threads: 2, Words: MinWords(2) + 1024}).DynamicHandle(); err == nil {
		t.Fatal("DynamicHandle succeeded under DefaultOptions")
	}
	for name, opts := range map[string]Options{"SNZI": SNZIOptions(), "AutoSNZI": AutoSNZIOptions()} {
		t.Run(name, func(t *testing.T) {
			const threads, dynamic, ops = 2, 4, 500
			l := MustNew(Config{Threads: threads, Words: MinWordsFor(threads, opts) + 4096, Options: opts})
			x := l.Arena().AllocLines(1)
			y := l.Arena().AllocLines(1)
			handles := []Handle{l.Handle(0), l.Handle(1)}
			for i := 0; i < dynamic; i++ {
				h, err := l.DynamicHandle()
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			var torn atomic.Int64
			var wg sync.WaitGroup
			writers := 0
			for i, h := range handles {
				// Slot 0 and two dynamic handles write; the rest read.
				writer := i == 0 || i >= threads+dynamic/2
				if writer {
					writers++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < ops; j++ {
						if writer {
							h.Write(0, func(m Accessor) {
								v := m.Load(x) + 1
								m.Store(x, v)
								m.Store(y, v)
							})
							continue
						}
						h.Read(1, func(m Accessor) {
							if m.Load(x) != m.Load(y) {
								torn.Add(1)
							}
						})
					}
				}()
			}
			wg.Wait()
			if n := torn.Load(); n != 0 {
				t.Fatalf("%d torn reads", n)
			}
			var got uint64
			handles[0].Read(1, func(m Accessor) { got = m.Load(x) })
			if want := uint64(writers * ops); got != want {
				t.Fatalf("counter = %d after %d writes", got, want)
			}
			// Dynamic handles have no observability ring, so Stats
			// counts only the slot handles' sections: ops each, plus
			// the read just above.
			if got, want := l.Stats().TotalOps(), uint64(threads*ops+1); got != want {
				t.Fatalf("Stats().TotalOps() = %d, want %d (slot-handle sections only)", got, want)
			}
		})
	}
}
