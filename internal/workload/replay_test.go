package workload

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"sprwl/internal/alloc"
	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/hang"
	"sprwl/internal/htm"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
	"sprwl/internal/tle"
	"sprwl/internal/tpcc"
)

// replayEnv is the real HTM runtime with one change: every k-th
// transactional attempt runs its body to completion and then aborts. That
// is the abort a retry-unsafe body cannot hide from. htm.Config's
// SpuriousEvery dooms an attempt at a transactional access, so whatever a
// body does after its last access never runs twice under it; here the
// whole body has run, every Go-side effect included, before the lock's
// retry policy re-runs it (or falls back and runs it once more directly).
// k = 0 passes every attempt through unchanged.
type replayEnv struct {
	*htm.Runtime
	every   int
	n       int
	replays int
}

// Attempt implements env.Env. Workers are single-threaded here, so the
// counters need no synchronization.
func (r *replayEnv) Attempt(slot int, opts env.TxOpts, body func(tx env.TxAccessor)) env.AbortCause {
	if r.every == 0 {
		return r.Runtime.Attempt(slot, opts, body)
	}
	if r.n++; r.n%r.every != 0 {
		return r.Runtime.Attempt(slot, opts, body)
	}
	return r.Runtime.Attempt(slot, opts, func(tx env.TxAccessor) {
		body(tx)
		r.replays++
		tx.Abort(env.AbortSpurious)
	})
}

// replayRun is what one workload run leaves behind: every op result the
// workload exposes, the final contents of its structure, and the blocks its
// node pool hands out next.
type replayRun struct {
	ops     []uint64
	mem     []uint64
	memBase memmodel.Addr
	pool    []memmodel.Addr
	replays int
}

// replayWorkload runs a fixed-seed single-threaded workload on e and
// reports what it observed.
type replayWorkload func(e *replayEnv, lock string) replayRun

const (
	// replayGuard bounds one workload run. A clean run takes well under
	// a second even with the race detector; a body that recycles its
	// node inside the section can hand one block out twice and link it
	// into a cycle, and the run then never ends.
	replayGuard = 5 * time.Second
	// poolDrain is how many blocks each slot's pool is asked for after a
	// run; a block recycled twice shows up as a repeat or a shifted
	// sequence.
	poolDrain = 32
)

// guardedRun runs one workload under hang.Guard and fails t if the
// run panics or overruns replayGuard.
func guardedRun(t *testing.T, w replayWorkload, lock string, every int) replayRun {
	t.Helper()
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 18})
	e := &replayEnv{Runtime: htm.NewRuntime(space, nil), every: every}
	var run replayRun
	hang.Guard(t, replayGuard, func() {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("k=%d: run panicked: %v", every, p)
			}
		}()
		run = w(e, lock)
	})
	if t.Failed() {
		t.FailNow()
	}
	return run
}

// newReplayLock builds the named lock for a single worker slot.
func newReplayLock(e env.Env, ar *memmodel.Arena, lock string, numCS int) rwlock.Handle {
	switch lock {
	case "SpRWL":
		return core.MustNew(e, ar, 1, numCS, core.DefaultOptions(), nil).NewHandle(0)
	case "TLE":
		return tle.New(e, ar, nil).NewHandle(0)
	}
	panic("unknown lock " + lock)
}

// snapshot copies the words in [base, end) as committed in space.
func snapshot(space *htm.Space, base, end memmodel.Addr) []uint64 {
	mem := make([]uint64, end-base)
	for a := base; a < end; a++ {
		mem[a-base] = space.Load(a)
	}
	return mem
}

// drain takes poolDrain blocks from slot 0 of p.
func drain(p *alloc.Pool) []memmodel.Addr {
	out := make([]memmodel.Addr, poolDrain)
	for i := range out {
		out[i] = p.Get(0)
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// replayKV drives every KV client op from a fixed seed. The key space is
// twice the populated one, so Puts insert and Deletes recycle nodes.
func replayKV(e *replayEnv, _ string) replayRun {
	space := e.Space()
	ar := memmodel.NewArena(0, space.Size())
	cfg := KVConfig{Table: locktable.Config{Shards: 4, Threads: 1}, Items: 256}
	kv, err := SetupKV(e, ar, cfg, nil)
	if err != nil {
		panic(err)
	}
	c := kv.NewClient(0)
	rng := rand.New(rand.NewPCG(7, 1))
	keys := 2 * kv.Items()
	var run replayRun
	rec := func(vs ...uint64) { run.ops = append(run.ops, vs...) }
	for i := 0; i < 600; i++ {
		k := rng.Uint64N(keys)
		switch op := rng.IntN(10); {
		case op < 4:
			v, ok := c.Get(k)
			rec(v, b2u(ok))
		case op < 6:
			rec(b2u(c.Put(k, rng.Uint64())))
		case op < 8:
			rec(b2u(c.Delete(k)))
		case op < 9:
			n, sum := c.Scan(k, 24)
			rec(uint64(n), sum)
		default:
			mkeys := []uint64{k, rng.Uint64N(keys), rng.Uint64N(keys), rng.Uint64N(keys)}
			rec(uint64(c.MultiPut(mkeys, rng.Uint64())))
		}
	}
	for k := uint64(0); k < keys; k++ {
		v, ok := kv.lists[kv.Table.ShardIndex(k)].Get(space, k)
		run.mem = append(run.mem, v, b2u(ok))
	}
	run.pool = drain(kv.pool)
	run.replays = e.replays
	return run
}

// replayHashmap runs the §4.1 worker; its memory holds the whole map.
func replayHashmap(e *replayEnv, lock string) replayRun {
	space := e.Space()
	ar := memmodel.NewArena(0, space.Size())
	h := newReplayLock(e, ar, lock, NumHashmapCS)
	base := ar.Next()
	hm := SetupHashmap(space, ar, HashmapConfig{Buckets: 16, Items: 128, LookupsPerRead: 2, UpdatePercent: 60}, 1)
	step := hm.Worker(h, 0, 5)
	for i := 0; i < 500; i++ {
		step()
	}
	return replayRun{mem: snapshot(space, base, space.Size()), memBase: base, pool: drain(hm.Pool), replays: e.replays}
}

// replayRangeScan runs the ordered-map worker.
func replayRangeScan(e *replayEnv, lock string) replayRun {
	space := e.Space()
	ar := memmodel.NewArena(0, space.Size())
	h := newReplayLock(e, ar, lock, NumRangeScanCS)
	base := ar.Next()
	rs := SetupRangeScan(space, ar, RangeScanConfig{Items: 256, ScanSpan: 16, UpdatePercent: 60}, 1)
	step := rs.Worker(h, 0, 3)
	for i := 0; i < 500; i++ {
		step()
	}
	return replayRun{mem: snapshot(space, base, space.Size()), memBase: base, pool: drain(rs.Pool), replays: e.replays}
}

// replayTPCC runs the paper's TPC-C mix on a small database; its rows are
// static, so there is no pool.
func replayTPCC(e *replayEnv, lock string) replayRun {
	space := e.Space()
	ar := memmodel.NewArena(0, space.Size())
	h := newReplayLock(e, ar, lock, NumTPCCCS)
	base := ar.Next()
	scale := tpcc.Config{Warehouses: 1, CustomersPerDistrict: 8, Items: 64, OrderRing: 32}
	scale.Validate()
	db := SetupTPCC(space, ar, scale, PaperMix(), 11)
	var now uint64
	step := db.Worker(h, 0, 11, func() uint64 { now++; return now })
	for i := 0; i < 500; i++ {
		step()
	}
	return replayRun{mem: snapshot(space, base, ar.Next()), memBase: base, replays: e.replays}
}

// firstDiff returns the first index at which a and b differ, counting a
// missing element as a difference, or -1 if they are equal.
func firstDiff[T comparable](a, b []T) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// diffRuns reports the first place got departs from the k = 0 reference.
func diffRuns(t *testing.T, ref, got replayRun) {
	t.Helper()
	if got.replays == 0 {
		t.Fatal("no attempt was replayed: the run proves nothing")
	}
	if i := firstDiff(ref.ops, got.ops); i >= 0 {
		t.Errorf("op result %d departs from the k=0 run (%d results there, %d here)", i, len(ref.ops), len(got.ops))
	}
	if i := firstDiff(ref.mem, got.mem); i >= 0 {
		t.Errorf("final contents depart from the k=0 run at word %d", ref.memBase+memmodel.Addr(i))
	}
	if i := firstDiff(ref.pool, got.pool); i >= 0 {
		t.Errorf("node pool's block %d departs from the k=0 run", i)
	}
}

// replayCases names each workload and the locks it runs under. The KV runs
// only under its own lock table.
var replayCases = []struct {
	name  string
	locks []string
	run   replayWorkload
}{
	{"KV", nil, replayKV},
	{"Hashmap", []string{"SpRWL", "TLE"}, replayHashmap},
	{"RangeScan", []string{"SpRWL", "TLE"}, replayRangeScan},
	{"TPCC", []string{"SpRWL", "TLE"}, replayTPCC},
}

// replayEvery lists the replay periods each run is compared at.
var replayEvery = []int{1, 2, 3, 5}

// replayDifferential runs w at k = 0 and then at every replayEvery period
// as subtests, each compared with the k = 0 run.
func replayDifferential(t *testing.T, w replayWorkload, lock string) {
	ref := guardedRun(t, w, lock, 0)
	for _, k := range replayEvery {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			diffRuns(t, ref, guardedRun(t, w, lock, k))
		})
	}
}
