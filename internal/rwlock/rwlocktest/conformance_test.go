// Conformance runs of every lock implementation in the repository against
// the shared rwlock contract suite.
package rwlocktest

import (
	"sync"
	"testing"
	"time"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/locks"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwle"
	"sprwl/internal/rwlock"
	"sprwl/internal/tle"
)

func coreFactory(opts func() core.Options) Factory {
	return func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return core.MustNew(e, ar, threads, 4, opts(), nil)
	}
}

// dynamicLock adapts a core lock so every handle the suite asks for is
// dynamically registered (no preassigned slot), running the full contract
// over the slot-free reader path.
type dynamicLock struct{ l *core.Lock }

func (d dynamicLock) NewHandle(int) rwlock.Handle {
	h, err := d.l.NewDynamicHandle()
	if err != nil {
		panic(err)
	}
	return h
}

func (d dynamicLock) Name() string { return d.l.Name() + "-Dyn" }

func dynamicFactory(opts func() core.Options) Factory {
	return func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return dynamicLock{l: core.MustNew(e, ar, threads, 4, opts(), nil)}
	}
}

// tinyBravoOptions shrinks the visible-readers table below the suite's
// thread count so the overflow/collision path is exercised under load.
func tinyBravoOptions() core.Options {
	o := core.BravoOptions()
	o.BravoSlots = 4
	return o
}

func TestConformance(t *testing.T) {
	factories := map[string]Factory{
		"SpRWL":            coreFactory(core.DefaultOptions),
		"SpRWL-NoSched":    coreFactory(core.NoSchedOptions),
		"SpRWL-RWait":      coreFactory(core.RWaitOptions),
		"SpRWL-RSync":      coreFactory(core.RSyncOptions),
		"SpRWL-SNZI":       coreFactory(core.SNZIOptions),
		"SpRWL-Auto":       coreFactory(core.AutoSNZIOptions),
		"SpRWL-Bravo":      coreFactory(core.BravoOptions),
		"SpRWL-Bravo-Tiny": coreFactory(tinyBravoOptions),
		"SpRWL-Bravo-Dyn":  dynamicFactory(core.BravoOptions),
		"SpRWL-SNZI-Dyn":   dynamicFactory(core.SNZIOptions),
		"SpRWL-Auto-Dyn":   dynamicFactory(core.AutoSNZIOptions),
		"SpRWL-VSGL": coreFactory(func() core.Options {
			o := core.DefaultOptions()
			o.VersionedSGL = true
			return o
		}),
		"SpRWL-NoHTMFirst": coreFactory(func() core.Options {
			o := core.DefaultOptions()
			o.ReaderHTMFirst = false
			return o
		}),
		"TLE": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return tle.New(e, ar, nil)
		},
		"RW-LE": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return rwle.New(e, ar, threads, nil)
		},
		"RWL": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return locks.NewRWL(e, ar, nil)
		},
		"BRLock": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return locks.NewBRLock(e, ar, threads, nil)
		},
		// One stripe of a lock table is a complete lock, not a
		// restricted mode of one. A shard is built as SpRWL-Auto is;
		// what only a table adds is the placement, so the row takes
		// the last of four shards, whose state the arena carves after
		// its three siblings'.
		"Table-Shard": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			tbl, err := locktable.New(e, ar, locktable.Config{Shards: 4, Threads: threads}, nil)
			if err != nil {
				panic(err)
			}
			return tbl.Shard(tbl.Shards() - 1)
		},
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			Run(t, f, Config{})
		})
	}
}

// TestConformanceUnderCapacityPressure re-runs the suite with a tiny HTM
// capacity, forcing every algorithm through its fallback machinery. The
// SpRWL variants differ in the reader indicator a fallback writer drains
// (flag array, SNZI, BRAVO table, the self-tuning mix) and in how readers
// meet a held fallback lock (VersionedSGL), so each gets its own run; the
// tiny BRAVO table adds a revoke-and-drain of its overflow line to nearly
// every write.
func TestConformanceUnderCapacityPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity-pressure conformance is slow under -short")
	}
	factories := map[string]Factory{
		"SpRWL":            coreFactory(core.DefaultOptions),
		"SpRWL-NoSched":    coreFactory(core.NoSchedOptions),
		"SpRWL-SNZI":       coreFactory(core.SNZIOptions),
		"SpRWL-Auto":       coreFactory(core.AutoSNZIOptions),
		"SpRWL-Bravo":      coreFactory(core.BravoOptions),
		"SpRWL-Bravo-Tiny": coreFactory(tinyBravoOptions),
		"SpRWL-VSGL": coreFactory(func() core.Options {
			o := core.DefaultOptions()
			o.VersionedSGL = true
			return o
		}),
		"TLE": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return tle.New(e, ar, nil)
		},
		"RW-LE": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return rwle.New(e, ar, threads, nil)
		},
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			Run(t, f, Config{HTMConfig: htm.Config{ReadCapacityLines: 3, WriteCapacityLines: 3}})
		})
	}
}

// exclusiveLock runs every section, reads included, under one mutex.
type exclusiveLock struct{ mu sync.Mutex }

func (x *exclusiveLock) NewHandle(int) rwlock.Handle { return x }

func (x *exclusiveLock) Name() string { return "exclusive" }

func (x *exclusiveLock) Read(_ int, body rwlock.Body) { x.Write(0, body) }

func (x *exclusiveLock) Write(_ int, body rwlock.Body) {
	x.mu.Lock()
	defer x.mu.Unlock()
	body(nil)
}

// TestReadersMeetFailsOnExclusiveReaders: the overlap probe must reject a
// lock whose readers exclude each other, however long it waits.
func TestReadersMeetFailsOnExclusiveReaders(t *testing.T) {
	if readersMeet(&exclusiveLock{}, 4, 50*time.Millisecond) {
		t.Fatal("readers met under a lock that runs them one at a time")
	}
}
