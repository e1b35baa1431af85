// Package sim is the deterministic discrete-event simulator that
// regenerates the paper's scaling figures on hosts without 56–80 hardware
// threads.
//
// The paper's evaluation ran on a 28-core Broadwell and an 80-thread
// POWER8; this reproduction has a single vCPU, so wall-clock throughput at
// high thread counts is unmeasurable. Instead, N *logical* threads execute
// the very same algorithm implementations (SpRWL, TLE, RW-LE, the
// pessimistic locks — all written against env.Env) in virtual time: a
// scheduler token serializes execution, every environment operation charges
// cycles from a coherence-aware cost model (package costs), and the thread
// with the smallest virtual clock always runs next. Throughput is then
// operations per virtual second, abort/commit breakdowns come from the same
// stats sinks as the real runtime, and results are bit-for-bit reproducible
// across runs — which EXPERIMENTS.md relies on.
//
// Because exactly one logical thread holds the token at any instant, the
// underlying htm.Space sees strictly serialized accesses; its conflict
// detection, capacity accounting, and strong-isolation semantics apply
// unchanged. SMT capacity sharing (POWER8) is modelled by scaling per-slot
// capacities with the profile's thread-per-core occupancy.
package sim

import (
	"container/heap"
	"fmt"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
)

// Config sizes a simulation.
type Config struct {
	// Threads is the number of logical threads (1..htm.MaxThreads).
	Threads int
	// Words is the simulated address-space size.
	Words int
	// Profile selects the machine model (capacities, SMT topology).
	// A zero-value profile means "no capacity limits".
	Profile htm.Profile
}

// thread is one logical thread's scheduling state.
type thread struct {
	id     int
	vt     uint64 // virtual clock, cycles
	resume chan struct{}
	done   bool
}

// threadHeap orders parked threads by (vt, id) — the id tie-break makes
// scheduling fully deterministic.
type threadHeap []*thread

func (h threadHeap) Len() int { return len(h) }
func (h threadHeap) Less(i, j int) bool {
	if h[i].vt != h[j].vt {
		return h[i].vt < h[j].vt
	}
	return h[i].id < h[j].id
}
func (h threadHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *threadHeap) Push(x any)   { *h = append(*h, x.(*thread)) }
func (h *threadHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Engine owns a simulation: the address space, the logical threads, the
// cost model, and the scheduler.
type Engine struct {
	cfg     Config
	space   *htm.Space
	costs   Costs
	coh     *coherence
	env     *Env
	pipe    *obs.Pipeline
	thr     []*thread
	parked  threadHeap
	cur     *thread
	live    int
	allDone chan struct{}
}

// AttachObs routes per-attempt hardware transaction events (obs.EvTx) into
// pipe's per-thread rings, one event per Attempt with its outcome and
// virtual-time span. Detached (the default), Attempt emits nothing.
func (e *Engine) AttachObs(pipe *obs.Pipeline) { e.pipe = pipe }

// NewEngine builds a simulation. Capacities are set per slot from the
// profile's SMT-aware effective capacity for the configured thread count.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Threads < 1 || cfg.Threads > htm.MaxThreads {
		return nil, fmt.Errorf("sim: Threads must be in [1,%d], got %d", htm.MaxThreads, cfg.Threads)
	}
	var rCap, wCap int
	if cfg.Profile.Name != "" {
		rCap, wCap = cfg.Profile.EffectiveCapacity(cfg.Threads)
	}
	space, err := htm.NewSpace(htm.Config{
		Threads:            cfg.Threads,
		Words:              cfg.Words,
		ReadCapacityLines:  rCap,
		WriteCapacityLines: wCap,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	costs := DefaultCosts()
	e := &Engine{
		cfg:   cfg,
		space: space,
		costs: costs,
		coh:   newCoherence(int(space.Size())/memmodel.LineWords, cfg.Threads, costs.StreamCacheLines),
	}
	e.env = &Env{eng: e}
	return e, nil
}

// MustNewEngine is NewEngine for static configurations.
func MustNewEngine(cfg Config) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Space exposes the underlying address space for cost-free provisioning
// (populating workloads before Run).
func (e *Engine) Space() *htm.Space { return e.space }

// MarkStreaming declares [base, base+words) to be bulk data whose working
// set exceeds any cache: accesses there always pay the miss latency. Call
// it after laying out the workload, before Run.
func (e *Engine) MarkStreaming(base memmodel.Addr, words int) {
	if words <= 0 {
		return
	}
	e.coh.markStreaming(memmodel.LineOf(base), memmodel.LineOf(base+memmodel.Addr(words-1)))
}

// Env returns the simulation's environment. Its methods may only be called
// from inside worker functions during Run (plus provisioning calls before
// Run, which are charged to no one).
func (e *Engine) Env() *Env { return e.env }

// Run executes worker(slot) on every logical thread until all return, then
// returns the final virtual time (the maximum thread clock). It must be
// called at most once per Engine.
func (e *Engine) Run(worker func(slot int)) uint64 {
	if e.thr != nil {
		panic("sim: Engine.Run called twice")
	}
	n := e.cfg.Threads
	e.thr = make([]*thread, n)
	e.allDone = make(chan struct{})
	for i := 0; i < n; i++ {
		e.thr[i] = &thread{id: i, resume: make(chan struct{}, 1)}
	}
	e.live = n
	// Park everyone but thread 0, which starts with the token.
	e.parked = e.parked[:0]
	for i := 1; i < n; i++ {
		heap.Push(&e.parked, e.thr[i])
	}
	e.cur = e.thr[0]
	for i := 0; i < n; i++ {
		t := e.thr[i]
		go func() {
			if t.id != 0 {
				<-t.resume
			}
			worker(t.id)
			e.finish(t)
		}()
	}
	<-e.allDone
	var maxVT uint64
	for _, t := range e.thr {
		if t.vt > maxVT {
			maxVT = t.vt
		}
	}
	return maxVT
}

// charge advances the current thread's clock and yields the token whenever
// another thread's clock (plus the scheduling quantum) falls behind ours —
// keeping all memory operations ordered by virtual timestamp up to the
// quantum.
func (e *Engine) charge(c uint64) {
	t := e.cur
	t.vt += c
	if len(e.parked) == 0 {
		return
	}
	if top := e.parked[0]; top.vt+e.costs.Quantum < t.vt {
		e.switchTo(top, t)
	}
}

// advanceTo moves the current thread's clock to at least target and yields
// if someone else is now earlier.
func (e *Engine) advanceTo(target uint64) {
	t := e.cur
	if target > t.vt {
		t.vt = target
	}
	if len(e.parked) > 0 {
		if top := e.parked[0]; top.vt < t.vt {
			e.switchTo(top, t)
		}
	}
}

// switchTo parks cur and hands the token to next.
func (e *Engine) switchTo(next, cur *thread) {
	heap.Pop(&e.parked)
	heap.Push(&e.parked, cur)
	e.cur = next
	next.resume <- struct{}{}
	<-cur.resume
}

// finish retires the current thread and passes the token on (or completes
// the run).
func (e *Engine) finish(t *thread) {
	t.done = true
	e.live--
	if e.live == 0 {
		close(e.allDone)
		return
	}
	next := heap.Pop(&e.parked).(*thread)
	e.cur = next
	next.resume <- struct{}{}
}
