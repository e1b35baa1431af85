package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/hang"
	"sprwl/internal/htm"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
)

// countingClock is a tsc.Clock that counts its reads. Every Now returns
// the next count, so stamps are nonzero and strictly increasing.
type countingClock struct{ n atomic.Uint64 }

func (c *countingClock) Now() uint64 { return c.n.Add(1) }

// eventLog is a sink that keeps every drained event.
type eventLog struct{ events []obs.Event }

func (s *eventLog) Drain(_ int, events []obs.Event) { s.events = append(s.events, events...) }

// clockCalls is how many measured calls each row makes.
const clockCalls = 10

// requireClockReads warms run up, then requires clockCalls calls of it to
// read clk exactly want times each.
func requireClockReads(t *testing.T, clk *countingClock, name string, want uint64, run func()) {
	t.Helper()
	hang.Guard(t, 10*time.Second, func() {
		// Warm up: the first sections grow the emulation's read/write
		// sets.
		for i := 0; i < 4; i++ {
			run()
		}
		before := clk.n.Load()
		for i := 0; i < clockCalls; i++ {
			run()
		}
		if got := clk.n.Load() - before; got != clockCalls*want {
			t.Errorf("%s read the clock %d times in %d calls, want %d per call", name, got, clockCalls, want)
		}
	})
}

// TestSectionClockReads is the clock-read budget of DESIGN §6, the
// companion of the allocation table in alloc_test.go. Only protocol
// stamps read the clock on an unobserved lock: the writer's ReaderSync
// advertisement (its entry stamp), the reader's WriterSync advertisement
// on the uninstrumented path, and the body stamps of the §3.2.1
// sampling slot (slot 0), whose aborted attempts also read a body start.
// Every stamp that feeds only the event ring costs a nil check. Rows give
// the exact reads per call of a Default-options lock for each slot, path
// (HTM commit, or the fallback forced by a one-line capacity as in
// TestSectionPathsDoNotAllocate) and observation state. Traced rows must
// still emit their events with nonzero stamps and start ≤ end.
func TestSectionClockReads(t *testing.T) {
	for _, r := range []struct {
		path        string
		capLines    int
		slot        int
		traced      bool
		read, write uint64
	}{
		{"HTM", 0, 0, false, 2, 3},
		{"HTM", 0, 1, false, 0, 1},
		{"SGL", 1, 0, false, 4, 4},
		{"SGL", 1, 1, false, 1, 1},
		{"HTM", 0, 0, true, 4, 5},
		{"HTM", 0, 1, true, 2, 3},
		{"SGL", 1, 0, true, 7, 11},
		{"SGL", 1, 1, true, 4, 8},
	} {
		t.Run(fmt.Sprintf("%s/slot%d/traced=%v", r.path, r.slot, r.traced), func(t *testing.T) {
			clk := &countingClock{}
			log := &eventLog{}
			var pipe *obs.Pipeline
			if r.traced {
				pipe = obs.NewPipeline(2, log)
			}
			space := htm.MustNewSpace(htm.Config{Threads: 2, Words: 1 << 14})
			space.SetSlotCapacity(r.slot, r.capLines, r.capLines)
			ar := memmodel.NewArena(0, space.Size())
			h := core.MustNew(htm.NewRuntime(space, clk), ar, 2, 4, core.DefaultOptions(), pipe).NewHandle(r.slot)
			data := ar.AllocLines(1)

			requireClockReads(t, clk, "Read", r.read, func() { h.Read(1, func(acc memmodel.Accessor) { acc.Load(data) }) })
			requireClockReads(t, clk, "Write", r.write, func() { h.Write(0, func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) }) })
			if !r.traced {
				return
			}
			pipe.Flush()
			readMode, writeMode := env.ModeHTM, env.ModeHTM
			if r.path == "SGL" {
				readMode, writeMode = env.ModeUninstrumented, env.ModeGL
			}
			sections := map[[2]uint8]int{}
			kinds := map[obs.Kind]int{}
			for _, ev := range log.events {
				if ev.TS == 0 || ev.TS+ev.Dur < ev.TS {
					t.Errorf("event %+v: want a nonzero start and start ≤ end", ev)
				}
				kinds[ev.Kind]++
				if ev.Kind == obs.EvSection {
					sections[[2]uint8{ev.RW, ev.Code}]++
				}
			}
			// The warm-up calls are recorded too.
			const n = 4 + clockCalls
			if got := sections[[2]uint8{obs.Reader, uint8(readMode)}]; got != n {
				t.Errorf("%d reader Section events in mode %v, want %d", got, readMode, n)
			}
			if got := sections[[2]uint8{obs.Writer, uint8(writeMode)}]; got != n {
				t.Errorf("%d writer Section events in mode %v, want %d", got, writeMode, n)
			}
			// The fallback path records one capacity abort per section
			// and one fallback-lock hold per write.
			if r.path == "SGL" && (kinds[obs.EvAbort] != 2*n || kinds[obs.EvSGL] != n) {
				t.Errorf("%d Abort and %d SGL events, want %d and %d", kinds[obs.EvAbort], kinds[obs.EvSGL], 2*n, n)
			}
		})
	}

	// A lock-table point read is its shard's SpRWL read on the worker's
	// slot, so on a non-sampling slot it reads no clock either.
	t.Run("locktable/HTM/slot1/traced=false", func(t *testing.T) {
		clk := &countingClock{}
		cfg := locktable.Config{Shards: 4, Threads: 2}
		space := htm.MustNewSpace(htm.Config{Threads: 2, Words: locktable.Words(cfg) + 64})
		ar := memmodel.NewArena(0, space.Size())
		tbl, err := locktable.New(htm.NewRuntime(space, clk), ar, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := tbl.NewHandle(1)
		data := ar.AllocLines(1)
		requireClockReads(t, clk, "Read", 0, func() { h.Read(7, 0, func(acc memmodel.Accessor) { acc.Load(data) }) })
	})

	// A writer whose entry stamp feeds only the ring reads no clock for
	// it: a NoSched lock makes no ReaderSync advertisement, and a dynamic
	// handle goes straight to the fallback lock without one.
	for _, r := range []struct {
		name        string
		opts        func() core.Options
		capLines    int
		dynamic     bool
		read, write uint64
	}{
		{"NoSched/HTM/slot1", core.NoSchedOptions, 0, false, 0, 0},
		{"NoSched/SGL/slot1", core.NoSchedOptions, 1, false, 0, 0},
		{"SNZI/dynamic", core.SNZIOptions, 0, true, 0, 0},
	} {
		t.Run(r.name+"/traced=false", func(t *testing.T) {
			clk := &countingClock{}
			space := htm.MustNewSpace(htm.Config{Threads: 2, Words: 1 << 14})
			space.SetSlotCapacity(1, r.capLines, r.capLines)
			ar := memmodel.NewArena(0, space.Size())
			l := core.MustNew(htm.NewRuntime(space, clk), ar, 2, 4, r.opts(), nil)
			h := l.NewHandle(1)
			if r.dynamic {
				var err error
				if h, err = l.NewDynamicHandle(); err != nil {
					t.Fatal(err)
				}
			}
			data := ar.AllocLines(1)
			requireClockReads(t, clk, "Read", r.read, func() { h.Read(1, func(acc memmodel.Accessor) { acc.Load(data) }) })
			requireClockReads(t, clk, "Write", r.write, func() { h.Write(0, func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) }) })
		})
	}
}
