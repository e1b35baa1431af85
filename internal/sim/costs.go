package sim

import "sprwl/internal/memmodel"

// Costs is the cycle-cost model of the simulated machine. Values are in
// cycles and approximate the latency hierarchy of the paper's testbeds:
// L1-hit loads are a few cycles, remote (coherence-miss) accesses are the
// best part of a hundred, and stores that must invalidate sharers cost the
// most — which is what makes centralized lock words scale badly, exactly as
// the paper's RWL baseline does.
type Costs struct {
	LoadHit   uint64 // load of a line cached by this thread
	LoadMiss  uint64 // load of a line last touched elsewhere
	StoreHit  uint64 // store to a line exclusively owned by this thread
	StoreMiss uint64 // store that must invalidate remote copies
	RMWExtra  uint64 // additional cost of CAS/fetch-and-add over a store
	TxBegin   uint64 // transaction begin overhead
	TxCommit  uint64 // transaction commit overhead
	TxAbort   uint64 // abort and rollback penalty
	Yield     uint64 // one spin-loop iteration
	Quantum   uint64 // scheduling granularity: a thread keeps the token until it leads by this many cycles

	// StreamCacheLines is the per-thread cache size (in direct-mapped
	// line slots, a power of two) used for streaming-region data. It
	// models a private L2: recently-touched bulk data hits — which is
	// what makes a re-executed critical section cheap after a capacity
	// abort, per the paper's §3.4 observation — while anything beyond
	// the working set misses.
	StreamCacheLines int
}

// DefaultCosts returns the cost model every simulation runs with.
func DefaultCosts() Costs {
	return Costs{
		LoadHit:          4,
		LoadMiss:         80,
		StoreHit:         8,
		StoreMiss:        110,
		RMWExtra:         12,
		TxBegin:          40,
		TxCommit:         30,
		TxAbort:          140,
		Yield:            40,
		Quantum:          64,
		StreamCacheLines: 4096, // 256 KiB private cache per thread
	}
}

// coherence tracks per-line sharer sets and owners for the cost model. It
// is only ever touched by the thread holding the scheduler token, so it
// needs no synchronization.
//
// Lines inside a *streaming region* never count as cached: they model bulk
// data (hashmap nodes, TPC-C tables) whose working set dwarfs any real
// cache — the paper's 8M-item tables are hundreds of megabytes — so every
// access pays the miss latency. Small hot structures (lock words, flag
// arrays, bucket heads) stay under the sharer model and reward locality,
// which is what makes centralized lock words ping-pong and distributed ones
// (BRLock) cheap, as on the real machines.
type coherence struct {
	// sharers[l] is the bitmask of threads with a cached copy of line l;
	// owner[l] is the last writing thread + 1 (0 = none).
	sharers   []uint64
	owner     []uint32
	streaming []bool
	// tags[t] is thread t's direct-mapped private cache over streaming
	// lines: tags[t][l & tagMask] == l+1 means the line is resident.
	tags    [][]uint64
	tagMask uint64
}

func newCoherence(lines, threads, cacheLines int) *coherence {
	if cacheLines < 2 {
		cacheLines = 2
	}
	// Round down to a power of two for mask indexing.
	size := 1
	for size*2 <= cacheLines {
		size *= 2
	}
	tags := make([][]uint64, threads)
	for t := range tags {
		tags[t] = make([]uint64, size)
	}
	return &coherence{
		sharers:   make([]uint64, lines),
		owner:     make([]uint32, lines),
		streaming: make([]bool, lines),
		tags:      tags,
		tagMask:   uint64(size - 1),
	}
}

// markStreaming flags [first, last] as bulk-data lines.
func (c *coherence) markStreaming(first, last memmodel.Line) {
	for l := first; l <= last && int(l) < len(c.streaming); l++ {
		c.streaming[l] = true
	}
}

// resident checks-and-installs line l in thread t's private cache.
func (c *coherence) resident(t int, l memmodel.Line) bool {
	slot := uint64(l) & c.tagMask
	if c.tags[t][slot] == uint64(l)+1 {
		return true
	}
	c.tags[t][slot] = uint64(l) + 1
	return false
}

// loadCost charges a read of line l by thread t and updates sharer state.
func (c *coherence) loadCost(costs *Costs, t int, l memmodel.Line) uint64 {
	if c.streaming[l] {
		if c.resident(t, l) {
			return costs.LoadHit
		}
		return costs.LoadMiss
	}
	bit := uint64(1) << uint(t)
	if c.sharers[l]&bit != 0 {
		return costs.LoadHit
	}
	c.sharers[l] |= bit
	return costs.LoadMiss
}

// storeCost charges a write of line l by thread t and updates owner state.
func (c *coherence) storeCost(costs *Costs, t int, l memmodel.Line) uint64 {
	if c.streaming[l] {
		if c.resident(t, l) {
			return costs.StoreHit
		}
		return costs.StoreMiss
	}
	bit := uint64(1) << uint(t)
	if c.owner[l] == uint32(t+1) && c.sharers[l] == bit {
		return costs.StoreHit
	}
	c.sharers[l] = bit
	c.owner[l] = uint32(t + 1)
	return costs.StoreMiss
}
