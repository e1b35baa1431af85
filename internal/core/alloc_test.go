package core

import (
	"testing"

	"sprwl/internal/env"
	"sprwl/internal/hang"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
	"sprwl/internal/stats"
)

// allocLock builds a one-slot lock with opts over a fresh space and
// returns it with one data word.
func allocLock(t *testing.T, opts Options) (*Lock, memmodel.Addr) {
	t.Helper()
	hang.CheckNotHung(t)
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 14})
	ar := memmodel.NewArena(0, space.Size())
	l := MustNew(htm.NewRuntime(space, nil), ar, 1, 4, opts, nil)
	return l, ar.AllocWords(1)
}

// requireNoAllocs warms h up and then requires a Read and a Write of data
// to run without heap allocation.
func requireNoAllocs(t *testing.T, h rwlock.Handle, data memmodel.Addr) {
	t.Helper()
	var sink uint64
	readBody := func(acc memmodel.Accessor) { sink += acc.Load(data) }
	writeBody := func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) }
	hang.Guard(t, waitGuard, func() {
		// Warm up: first transactions grow the emulation's read/write
		// sets.
		for i := 0; i < 4; i++ {
			h.Write(0, writeBody)
			h.Read(1, readBody)
		}
		if avg := testing.AllocsPerRun(100, func() { h.Read(1, readBody) }); avg != 0 {
			t.Errorf("Read allocated %.2f objects per run, want 0", avg)
		}
		if avg := testing.AllocsPerRun(100, func() { h.Write(0, writeBody) }); avg != 0 {
			t.Errorf("Write allocated %.2f objects per run, want 0", avg)
		}
	})
	_ = sink
}

// TestReadWriteCommitPathDoesNotAllocate pins the steady-state allocation
// behavior of the SpRWL acquire paths: once a handle exists, an
// uncontended Read or Write that commits in hardware must not
// heap-allocate. This is what the cached per-handle transaction closures
// in NewHandle buy — without them, every attempt re-built a closure that
// escaped through the env.Env.Attempt interface.
func TestReadWriteCommitPathDoesNotAllocate(t *testing.T) {
	l, data := allocLock(t, DefaultOptions())
	requireNoAllocs(t, l.NewHandle(0), data)
}

// TestBravoReadWritePathDoesNotAllocate pins the BRAVO backend's acquire
// paths: arrival hashing, slot CAS, and the overflow fallback are all
// in-place on preallocated table lines, so the static read and write paths
// stay allocation-free just like the flag-array configuration.
func TestBravoReadWritePathDoesNotAllocate(t *testing.T) {
	opts := BravoOptions()
	opts.BravoSlots = 8 // deterministic table size regardless of GOMAXPROCS
	l, data := allocLock(t, opts)
	requireNoAllocs(t, l.NewHandle(0), data)
}

// TestDynamicHandlePathsDoNotAllocate pins the dynamic-registration hot
// paths: once a dynamic handle exists, its Read (BRAVO arrive/depart, no
// per-slot bookkeeping) and Write (straight to the fallback lock) must not
// heap-allocate. This is what keeps NewDynamicHandle usable from transient
// goroutines — the only allocation is the handle itself.
func TestDynamicHandlePathsDoNotAllocate(t *testing.T) {
	opts := BravoOptions()
	opts.BravoSlots = 8
	l, data := allocLock(t, opts)
	h, err := l.NewDynamicHandle()
	if err != nil {
		t.Fatal(err)
	}
	requireNoAllocs(t, h, data)
}

// TestSectionPathsDoNotAllocate is core's allocation table: for every
// option set the paper evaluates, a steady-state Read and Write must not
// heap-allocate, whether the section commits in hardware (HTM rows) or
// takes its fallback (SGL rows). The SGL rows give slot 0 a capacity of
// one line with SetSlotCapacity(0, 1, 1): the lock subscription plus the
// data word need two, so every attempt aborts on capacity, writers run
// under the single global lock and readers run uninstrumented. Each row
// also checks the commit mode it was meant to reach.
func TestSectionPathsDoNotAllocate(t *testing.T) {
	bravo := BravoOptions()
	bravo.BravoSlots = 8
	paths := []struct {
		name             string
		capLines         int
		readMode, wrMode env.CommitMode
	}{
		{"HTM", 0, env.ModeHTM, env.ModeHTM},
		{"SGL", 1, env.ModeUninstrumented, env.ModeGL},
	}
	for _, o := range []struct {
		name string
		opts Options
	}{
		{"Default", DefaultOptions()},
		{"SNZI", SNZIOptions()},
		{"BRAVO", bravo},
		{"AutoSNZI", AutoSNZIOptions()},
		{"NoSched", NoSchedOptions()},
	} {
		t.Run(o.name, func(t *testing.T) {
			for _, p := range paths {
				t.Run(p.name, func(t *testing.T) {
					space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 14})
					space.SetSlotCapacity(0, p.capLines, p.capLines)
					ar := memmodel.NewArena(0, space.Size())
					col := stats.NewCollector(1)
					h := MustNew(htm.NewRuntime(space, nil), ar, 1, 4, o.opts, col.Pipeline()).NewHandle(0)
					data := ar.AllocLines(1)

					var sink uint64
					readBody := func(acc memmodel.Accessor) { sink += acc.Load(data) }
					writeBody := func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) }
					rows := []struct {
						name string
						kind stats.Kind
						mode env.CommitMode
						run  func()
					}{
						{"Read", stats.Reader, p.readMode, func() { h.Read(1, readBody) }},
						{"Write", stats.Writer, p.wrMode, func() { h.Write(0, writeBody) }},
					}
					// Warm up: the first sections grow the emulation's
					// read/write sets and the obs ring.
					hang.Guard(t, waitGuard, func() {
						for i := 0; i < 4; i++ {
							for _, r := range rows {
								r.run()
							}
						}
					})
					for _, r := range rows {
						t.Run(r.name, func(t *testing.T) {
							before := col.Snapshot().Commits[r.kind][r.mode]
							hang.Guard(t, waitGuard, func() {
								if avg := testing.AllocsPerRun(100, r.run); avg != 0 {
									t.Errorf("allocated %.2f objects per run, want 0", avg)
								}
							})
							if after := col.Snapshot().Commits[r.kind][r.mode]; after-before < 100 {
								t.Errorf("%d of 101 sections committed in mode %v", after-before, r.mode)
							}
						})
					}
					_ = sink
				})
			}
		})
	}
}
